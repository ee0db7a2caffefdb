// Package orchestrate runs the study's data-collection pipeline: sample
// configurations from the design space, simulate every application on each,
// and collect the cycle counts into a dataset — the Go equivalent of the
// artifact's run_xci.sh / config_generator.py / collect_data.py workflow,
// fanned out over local cores instead of Isambard 2 nodes.
//
// Collection is organised as a staged engine (see Engine): an indexed
// config source, a simulating worker stage, and a pluggable RowSink.
// Collect wires the stages into the classic one-call API; callers needing
// streaming output or resume drive the options directly.
package orchestrate

import (
	"context"
	"fmt"

	"armdse/internal/dataset"
	"armdse/internal/params"
	"armdse/internal/simeng"
	"armdse/internal/workload"
)

// Options configure a collection run.
type Options struct {
	// Seed drives configuration derivation; identical seeds with
	// identical options produce identical datasets, regardless of
	// Workers or resume point (configs are derived
	// independently per index — see params.ConfigAt).
	Seed int64
	// Samples is the size of the run's global index space. Ignored when
	// Batches is set (the proposer decides the index space).
	Samples int
	// Batches, when non-nil, replaces the fixed indexed source with a
	// batch proposer — the adaptive search seam; see Engine.Batches.
	Batches BatchSource
	// Prior seeds a Batches run with the completed rows of an interrupted
	// one; see Engine.Prior.
	Prior []Row
	// Workers bounds the worker pool; 0 uses GOMAXPROCS.
	Workers int
	// Suite is the workload set; nil uses workload.TestSuite().
	Suite []workload.Workload
	// Backend selects the memory backend by name (BackendSST, BackendFlat,
	// BackendProxy); empty uses BackendSST, the study's default.
	Backend string
	// Eval selects the per-config evaluator by name (EvalExact,
	// EvalHybrid); empty uses EvalExact. See Engine.Eval — exact runs are
	// byte-identical to pre-seam collections.
	Eval string
	// EvalEscalate is the hybrid evaluator's escalation threshold on the
	// residual forest's log-space spread; 0 uses DefaultEvalEscalate.
	EvalEscalate float64
	// MaxCyclesPerRun aborts pathological runs; 0 uses the engine default.
	MaxCyclesPerRun int64
	// Validate runs each workload's functional validation before
	// collecting, mirroring the paper's rule that only validated runs
	// enter the dataset.
	Validate bool
	// Sink, when non-nil, receives every completed row instead of the
	// default in-memory dataset (in which case Result.Data is nil) —
	// pass a StreamSink to journal rows to disk as they complete.
	Sink RowSink
	// Skip, when non-nil, drops index i without simulating it — the
	// resume hook (pass the journal's completed-index set). Any partition
	// of a seed's indices into skipped and kept sets unions back to the
	// full run.
	Skip func(i int) bool
	// Progress, when non-nil, receives a ProgressEvent after each
	// configuration finishes. See Engine.Progress for the concurrency
	// contract: calls are serialised by the engine but may come from
	// different goroutines; keep the callback fast.
	Progress func(ev ProgressEvent)
	// Telemetry, when non-nil, records run metrics, sweep gauges and JSONL
	// journal records through the collection; see Telemetry. Purely
	// observational — dataset output is byte-identical with it enabled.
	Telemetry *Telemetry
}

// Result is a collection outcome.
type Result struct {
	// Data is the collected dataset, one row per successful config,
	// sorted by global index. Nil when Options.Sink was supplied.
	Data *dataset.Dataset
	// Done counts configurations that finished (including failed ones).
	Done int
	// Failed counts configurations dropped because a run errored.
	Failed int
}

// RunOneOn simulates a single (configuration, workload) pair on a fresh
// core over a fresh instance of the named memory backend, under the given
// cycle budget (<= 0 uses the engine default) — the fresh-object reference
// the engine's pooled path is checked against.
func RunOneOn(backend string, cfg params.Config, w workload.Workload, maxCycles int64) (simeng.Stats, error) {
	p, err := w.Program(cfg.Core.VectorLength)
	if err != nil {
		return simeng.Stats{}, fmt.Errorf("orchestrate: %s: %w", w.Name(), err)
	}
	if maxCycles <= 0 {
		maxCycles = simeng.DefaultMaxCycles
	}
	mem, err := NewBackend(backend, cfg)
	if err != nil {
		return simeng.Stats{}, err
	}
	c, err := simeng.New(cfg.Core, mem)
	if err != nil {
		return simeng.Stats{}, err
	}
	return c.RunLimit(p.Stream(), maxCycles)
}

// Collect runs the full pipeline. Configurations whose simulation fails
// are dropped (and counted), matching the paper's validation gate; the
// error return is reserved for setup problems, sink failures, and context
// cancellation.
//
// On cancellation Collect returns the partial result — every row completed
// before the interrupt (plus ctx.Err()), so callers can persist what
// finished.
func Collect(ctx context.Context, opt Options) (Result, error) {
	if opt.Batches == nil && opt.Samples <= 0 {
		return Result{}, fmt.Errorf("orchestrate: samples %d <= 0", opt.Samples)
	}
	suite := opt.Suite
	if suite == nil {
		suite = workload.TestSuite()
	}
	if len(suite) == 0 {
		return Result{}, fmt.Errorf("orchestrate: empty workload suite")
	}
	if opt.Validate {
		for _, w := range suite {
			if err := w.Validate(); err != nil {
				return Result{}, fmt.Errorf("orchestrate: %s failed validation: %w", w.Name(), err)
			}
		}
	}

	sink := opt.Sink
	var ds *DatasetSink
	if sink == nil {
		ds = NewDatasetSink(params.FeatureNames(), SuiteNames(suite))
		sink = ds
	}

	eng := &Engine{
		Batches:         opt.Batches,
		Prior:           opt.Prior,
		Suite:           suite,
		Sink:            sink,
		Backend:         opt.Backend,
		Eval:            opt.Eval,
		EvalEscalate:    opt.EvalEscalate,
		Seed:            opt.Seed,
		Workers:         opt.Workers,
		MaxCyclesPerRun: opt.MaxCyclesPerRun,
		Skip:            opt.Skip,
		Progress:        opt.Progress,
		Telemetry:       opt.Telemetry,
	}
	if opt.Batches == nil {
		eng.Source = IndexedSource{Seed: opt.Seed, N: opt.Samples}
	}
	done, failed, runErr := eng.Run(ctx)
	res := Result{Done: done, Failed: failed}
	if ds != nil {
		data, _, err := ds.Dataset()
		if err != nil {
			return res, err
		}
		res.Data = data
	}
	if runErr != nil {
		return res, runErr
	}
	if ds != nil && res.Data.Len() == 0 && done > 0 {
		return res, fmt.Errorf("orchestrate: every configuration failed (first error: %v)", ds.FirstError())
	}
	return res, nil
}
