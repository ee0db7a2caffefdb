// Package experiments regenerates every table and figure of the paper's
// evaluation: Fig. 1 (vectorisation), Table I (simulation validation),
// Tables II-IV (the design space and inputs), Fig. 2 (surrogate accuracy),
// Figs. 3-5 (feature importance, unconstrained and with vector length pinned
// to 128/2048) and Figs. 6-8 (speedup curves for vector length, ROB size and
// FP/SVE register count). Each driver returns a Result holding rendered
// tables plus the raw series, so both the CLI and the benchmark harness can
// reuse them.
package experiments

import (
	"context"
	"fmt"

	"armdse/internal/dataset"
	"armdse/internal/dtree"
	"armdse/internal/orchestrate"
	"armdse/internal/params"
	"armdse/internal/report"
	"armdse/internal/workload"
)

// Options configure the experiment drivers. The zero value is usable:
// scaled-down workloads, a laptop-scale dataset, the paper's ML settings.
type Options struct {
	// Samples is the number of design-space configurations simulated for
	// the dataset-driven experiments (the paper collected 180,006; this
	// repo defaults to a laptop-scale 600, which the paper itself notes
	// may suffice: "it may be possible to effectively map the design
	// space with only a few thousand results").
	Samples int
	// Seed drives sampling, splitting and shuffling.
	Seed int64
	// Workers bounds the simulation worker pool (0 = GOMAXPROCS). The
	// same count drives the surrogate trainer's deterministic parallel
	// build, so it never changes the trained models — only their cost.
	Workers int
	// Suite is the workload set (nil = workload.TestSuite()).
	Suite []workload.Workload
	// Data, when non-nil, is used instead of collecting a fresh dataset;
	// cmd/dsepaper collects once and shares it across experiments.
	Data *dataset.Dataset
	// Progress, when non-nil, receives collection progress events; see
	// orchestrate.Engine.Progress for the concurrency contract.
	Progress func(ev orchestrate.ProgressEvent)
}

// The paper's ML protocol.
const (
	trainFrac         = 0.8 // share of rows the accuracy surrogates train on
	importanceRepeats = 10  // permutation-importance shuffles per feature
)

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Samples <= 0 {
		o.Samples = 600
	}
	if o.Suite == nil {
		o.Suite = workload.TestSuite()
	}
	return o
}

// treeOptions returns the surrogate-training options the drivers share: the
// experiment's worker count re-used for the deterministic parallel build
// (0 resolves to GOMAXPROCS inside dtree) and the paper's exact split scan.
func (o Options) treeOptions() dtree.Options {
	return dtree.Options{Workers: o.Workers}
}

// importanceOptions returns the matching permutation-importance options.
func (o Options) importanceOptions() dtree.ImportanceOptions {
	return dtree.ImportanceOptions{Repeats: importanceRepeats, Seed: o.Seed, Workers: o.Workers}
}

// Result is one regenerated table or figure.
type Result struct {
	// ID is the experiment identifier ("table1", "fig3"...).
	ID string
	// Title describes the experiment.
	Title string
	// Tables are the rendered outputs.
	Tables []report.Table
	// Notes carry commentary (substitutions, expected shapes).
	Notes []string
}

// String renders the full result.
func (r Result) String() string {
	s := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	for i := range r.Tables {
		s += "\n" + r.Tables[i].String()
	}
	for _, n := range r.Notes {
		s += "\nnote: " + n + "\n"
	}
	return s
}

// CollectData gathers the shared dataset for the ML-driven experiments.
func CollectData(ctx context.Context, opt Options) (*dataset.Dataset, error) {
	opt = opt.withDefaults()
	if opt.Data != nil {
		return opt.Data, nil
	}
	res, err := orchestrate.Collect(ctx, orchestrate.Options{
		Seed:     opt.Seed,
		Samples:  opt.Samples,
		Workers:  opt.Workers,
		Suite:    opt.Suite,
		Progress: opt.Progress,
	})
	if err != nil {
		return nil, err
	}
	return res.Data, nil
}

// simulate runs every configuration of cfgs on opt.Suite through the
// collection engine at opt.Workers; each config's Mem picks its memory model
// (fidelity, prefetching). It returns the first failed run's error, or else
// the dataset with row i holding cfgs[i], so callers read
// d.Target(app)[i].
func simulate(ctx context.Context, opt Options, cfgs []params.Config) (*dataset.Dataset, error) {
	sink := orchestrate.NewDatasetSink(params.FeatureNames(), orchestrate.SuiteNames(opt.Suite))
	eng := orchestrate.Engine{
		Source:  orchestrate.SliceSource(cfgs),
		Suite:   opt.Suite,
		Workers: opt.Workers,
		Sink:    sink,
	}
	if _, _, err := eng.Run(ctx); err != nil {
		return nil, err
	}
	if err := sink.FirstError(); err != nil {
		return nil, err
	}
	d, _, err := sink.Dataset()
	return d, err
}

// Runner is one named experiment driver.
type Runner struct {
	ID    string
	Title string
	Run   func(ctx context.Context, opt Options) (Result, error)
	// SharedData marks a driver that reads the shared dataset through
	// CollectData, so a caller running several can collect or load it once
	// into Options.Data.
	SharedData bool
}

// All returns every experiment in paper order.
func All() []Runner {
	return []Runner{
		{ID: "fig1", Title: "SVE fraction of retired instructions vs vector length", Run: Fig1},
		{ID: "table1", Title: "Simulated vs hardware-proxy cycles (ThunderX2 baseline)", Run: Table1},
		{ID: "table2", Title: "Core parameter ranges (design space)", Run: Table2},
		{ID: "table3", Title: "Memory parameter ranges (design space)", Run: Table3},
		{ID: "table4", Title: "Application input parameters", Run: Table4},
		{ID: "fig2", Title: "Surrogate accuracy within confidence intervals", Run: Fig2, SharedData: true},
		{ID: "fig3", Title: "Top-10 permutation feature importances", Run: Fig3, SharedData: true},
		{ID: "fig4", Title: "Importances with vector length fixed at 128", Run: Fig4, SharedData: true},
		{ID: "fig5", Title: "Importances with vector length fixed at 2048", Run: Fig5, SharedData: true},
		{ID: "fig6", Title: "Mean speedup vs vector length", Run: Fig6},
		{ID: "fig7", Title: "Mean speedup vs ROB size", Run: Fig7},
		{ID: "fig8", Title: "Mean speedup vs FP/SVE register count", Run: Fig8},
	}
}

// ByID returns the runner with the given ID (including extensions), or an
// error listing valid IDs.
func ByID(id string) (Runner, error) {
	var ids []string
	for _, r := range AllWithExtensions() {
		if r.ID == id {
			return r, nil
		}
		ids = append(ids, r.ID)
	}
	return Runner{}, fmt.Errorf("experiments: unknown id %q (valid: %v)", id, ids)
}
