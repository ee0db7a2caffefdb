// Package armdse is an AI-assisted design-space analysis toolkit for
// high-performance Arm processors — a self-contained Go reproduction of
// Moore, Deakin and McIntosh-Smith, "AI-Assisted Design-Space Analysis of
// High-Performance Arm Processors" (SC 2024).
//
// The package couples a cycle-approximate out-of-order Arm core model (the
// SimEng stand-in) with an L1/L2/RAM memory backend (the SST stand-in), runs
// the paper's four HPC mini-apps (STREAM, miniBUDE, TeaLeaf, MiniSweep) as
// vector-length-agnostic instruction streams over a 30-parameter design
// space, trains one decision-tree regression surrogate per application to
// predict execution cycles, and ranks parameters with permutation feature
// importance. A configuration's Mem field picks the whole memory model: the
// Table I "hardware" reference is the same hierarchy at High fidelity.
//
// Typical flow:
//
//	cfg := armdse.ThunderX2()                     // or armdse.SampleConfigs(seed, n)
//	st, err := armdse.Simulate(cfg, armdse.NewSTREAM(armdse.TestSTREAMInputs()))
//
//	res, err := armdse.Collect(ctx, armdse.CollectOptions{Seed: 1, Samples: 2000})
//	tree, err := armdse.TrainSurrogate(res.Data, armdse.STREAM)
//	imps, err := armdse.FeatureImportance(tree, res.Data, armdse.STREAM, 10, 1)
//
// Every table and figure of the paper can be regenerated through the
// Experiments API or the cmd/dsepaper binary.
//
// This package is the library surface for code outside the module (the
// perfbench harness, programs built on the toolkit, and the godoc examples);
// the commands under cmd/ call the internal packages directly.
package armdse

import (
	"context"

	"armdse/internal/dataset"
	"armdse/internal/dtree"
	"armdse/internal/obs"
	"armdse/internal/orchestrate"
	"armdse/internal/params"
	"armdse/internal/simeng"
	"armdse/internal/workload"
)

// Core simulation types.
type (
	// Config is one design-space point: a core plus its memory backend.
	Config = params.Config
	// Stats summarises one simulated run; Cycles is the study's target.
	Stats = simeng.Stats
	// MemoryBackend is the seam between the core and its memory system;
	// sstmem hierarchies (at either fidelity) and the ideal flat memory
	// implement it.
	MemoryBackend = simeng.MemoryBackend
	// Workload is one benchmark application.
	Workload = workload.Workload
	// Param is one dimension of the design space.
	Param = params.Param
)

// Machine-learning types.
type (
	// Dataset holds collected feature rows and per-app cycle targets.
	Dataset = dataset.Dataset
	// Tree is a trained CART regression surrogate.
	Tree = dtree.Tree
	// TreeOptions configure surrogate training (zero value = paper's);
	// Workers selects the deterministic parallel build.
	TreeOptions = dtree.Options
	// Importance is one feature's signed permutation importance.
	Importance = dtree.Importance
	// ImportanceOptions configure FeatureImportanceOpt (repeats, seed,
	// workers).
	ImportanceOptions = dtree.ImportanceOptions
)

// Application names, in the paper's presentation order.
const (
	STREAM    = workload.NameSTREAM
	MiniBUDE  = workload.NameMiniBUDE
	TeaLeaf   = workload.NameTeaLeaf
	MiniSweep = workload.NameMiniSweep
)

// NumFeatures is the surrogate-model input dimensionality (30).
const NumFeatures = params.NumFeatures

// Workload constructors and inputs.
type (
	// STREAMInputs configure the STREAM benchmark.
	STREAMInputs = workload.STREAMInputs
	// MiniBUDEInputs configure the miniBUDE kernel.
	MiniBUDEInputs = workload.MiniBUDEInputs
	// TeaLeafInputs configure the TeaLeaf solve.
	TeaLeafInputs = workload.TeaLeafInputs
	// TeaLeafSolver selects TeaLeaf's iterative method.
	TeaLeafSolver = workload.TeaLeafSolver
	// MiniSweepInputs configure the MiniSweep transport sweep.
	MiniSweepInputs = workload.MiniSweepInputs
)

// NewSTREAM builds the STREAM workload.
func NewSTREAM(in STREAMInputs) Workload { return workload.NewSTREAM(in) }

// NewMiniBUDE builds the miniBUDE workload.
func NewMiniBUDE(in MiniBUDEInputs) Workload { return workload.NewMiniBUDE(in) }

// NewTeaLeaf builds the TeaLeaf workload.
func NewTeaLeaf(in TeaLeafInputs) Workload { return workload.NewTeaLeaf(in) }

// NewMiniSweep builds the MiniSweep workload.
func NewMiniSweep(in MiniSweepInputs) Workload { return workload.NewMiniSweep(in) }

// Paper-scale and scaled-down (test) inputs for each application (Table IV).
var (
	PaperSTREAMInputs    = workload.PaperSTREAMInputs
	TestSTREAMInputs     = workload.TestSTREAMInputs
	PaperMiniBUDEInputs  = workload.PaperMiniBUDEInputs
	TestMiniBUDEInputs   = workload.TestMiniBUDEInputs
	PaperTeaLeafInputs   = workload.PaperTeaLeafInputs
	TestTeaLeafInputs    = workload.TestTeaLeafInputs
	PaperMiniSweepInputs = workload.PaperMiniSweepInputs
	TestMiniSweepInputs  = workload.TestMiniSweepInputs
)

// PaperSuite returns the four workloads at the paper's Table IV inputs.
func PaperSuite() []Workload { return workload.PaperSuite() }

// TestSuite returns the four workloads scaled for laptop-scale studies.
func TestSuite() []Workload { return workload.TestSuite() }

// ThunderX2 returns the fixed Marvell ThunderX2 baseline configuration used
// for the paper's Table I validation.
func ThunderX2() Config { return params.ThunderX2() }

// Space returns the 30-parameter design space (Tables II and III).
func Space() []Param { return params.Space() }

// FeatureNames returns the canonical 30 feature column names.
func FeatureNames() []string { return params.FeatureNames() }

// SampleConfigs draws n design-space configurations under the paper's
// sampling constraints, deterministically from seed.
func SampleConfigs(seed int64, n int) []Config { return params.SampleN(seed, n) }

// SaveConfig writes a configuration as indented JSON.
func SaveConfig(cfg Config, path string) error { return params.SaveConfig(cfg, path) }

// LoadConfig reads a JSON configuration written by SaveConfig (or by hand,
// as under configs/) and validates it.
func LoadConfig(path string) (Config, error) { return params.LoadConfig(path) }

// Simulate runs one workload on one configuration and returns the run
// statistics.
func Simulate(cfg Config, w Workload) (Stats, error) {
	return orchestrate.RunOneOn(BackendSST, cfg, w, 0)
}

// BackendSST names the L1/L2/RAM hierarchy the configuration's Mem
// describes, at its fidelity — the default memory backend of SimulateOn and
// the only one a collection uses.
const BackendSST = orchestrate.BackendSST

// SimulateOn is Simulate on the named memory backend under an explicit cycle
// budget (the protection Collect applies via CollectOptions.MaxCyclesPerRun);
// backend "" means BackendSST, "flat" the ideal fixed-latency memory, and
// maxCycles <= 0 the engine default.
func SimulateOn(backend string, cfg Config, w Workload, maxCycles int64) (Stats, error) {
	return orchestrate.RunOneOn(backend, cfg, w, maxCycles)
}

// StallClassNames returns the stall taxonomy's class names in breakdown
// order — the per-class labels of Stats.Stalls.
func StallClassNames() []string { return simeng.StallClassNames() }

// Evaluator names accepted by CollectOptions.Eval.
const (
	// EvalExact runs the full simulator on every configuration — the
	// study's default and the ground-truth reference.
	EvalExact = orchestrate.EvalExact
	// EvalHybrid predicts from bounds plus a learned residual when the
	// forest is confident, escalating the rest to exact simulation.
	EvalHybrid = orchestrate.EvalHybrid
)

// Collection engine types; see the orchestrate package for details.
type (
	// CollectOptions configure dataset collection.
	CollectOptions = orchestrate.Options
	// CollectResult is the outcome of a collection run.
	CollectResult = orchestrate.Result
	// Row is the outcome record of one collected configuration.
	Row = orchestrate.Row
	// RowSink consumes completed rows; implementations must be safe for
	// concurrent use.
	RowSink = orchestrate.RowSink
	// StreamWriter journals completed rows to disk for interruption-safe
	// streaming collection.
	StreamWriter = dataset.StreamWriter
	// BatchSource is the generation-driven configuration seam: the engine
	// asks it for the next proposal batch, runs the batch to a barrier,
	// and feeds the completed rows back before asking again
	// (CollectOptions.Batches); search.Proposer is the adaptive case.
	BatchSource = orchestrate.BatchSource
)

// Collect simulates every workload on each of the design space's sampled
// configurations in parallel, returning the dataset (the paper's T1-T3
// pipeline). Identical seeds yield byte-identical datasets regardless of
// Workers or interruption/resume; on cancellation the partial
// result is returned alongside ctx.Err().
func Collect(ctx context.Context, opt CollectOptions) (CollectResult, error) {
	return orchestrate.Collect(ctx, opt)
}

// CreateStreamAux starts a fresh collection journal at path, truncating any
// existing file; pass the result to NewStreamSink to stream rows to disk as
// they complete. Pass StallColumns(apps) as auxNames to journal the
// collection's per-class stall attribution alongside its cycle targets. A
// non-empty meta string is stamped into the journal header.
func CreateStreamAux(path string, featureNames, apps, auxNames []string, meta string) (*StreamWriter, error) {
	return dataset.CreateStreamAux(path, featureNames, apps, auxNames, meta)
}

// StallColumns returns the auxiliary column names a collection over the
// given applications emits: one "stall:<app>:<class>" column per
// (application, stall class) pair.
func StallColumns(apps []string) []string { return orchestrate.StallColumns(apps) }

// CompactStream materialises a collection journal as a dataset sorted by
// global index, returning the number of failed (dropped) configurations.
func CompactStream(path string) (*Dataset, int, error) {
	return dataset.CompactStream(path)
}

// NewStreamSink adapts a journal writer to the collection engine's sink
// interface.
func NewStreamSink(w *StreamWriter) RowSink { return orchestrate.StreamSink{W: w} }

// Telemetry layer types; see internal/obs for the metrics core and
// internal/orchestrate.Telemetry for the engine-facing hub.
type (
	// Telemetry is the collection engine's observability hub: sharded
	// metrics, sweep status, and the structured JSONL run journal. Pass it
	// through CollectOptions.Telemetry; recording is allocation-free and
	// never perturbs dataset output.
	Telemetry = orchestrate.Telemetry
	// MetricsRegistry holds sharded counters, gauges and histograms with
	// deterministic snapshot, Prometheus text and JSON encoders.
	MetricsRegistry = obs.Registry
	// RunJournal is a flush-per-line JSONL log, tail-able during a sweep.
	RunJournal = obs.Journal
)

// NewMetricsRegistry builds a metrics registry whose sharded metrics carry at
// least the given number of shards (rounded up to a power of two). Pass the
// collection's worker count so each worker records into a private slot.
func NewMetricsRegistry(shards int) *MetricsRegistry { return obs.NewRegistry(shards) }

// NewTelemetry wires a telemetry hub over an optional metrics registry and an
// optional run journal (either may be nil; a nil hub is also valid
// everywhere one is accepted).
func NewTelemetry(reg *MetricsRegistry, journal *RunJournal) *Telemetry {
	return orchestrate.NewTelemetry(reg, journal)
}

// SuiteNames returns the application names of a workload suite — the
// target columns of a collection over it.
func SuiteNames(suite []Workload) []string { return orchestrate.SuiteNames(suite) }

// LoadDataset reads a CSV dataset written by Dataset.SaveFile.
func LoadDataset(path string) (*Dataset, error) { return dataset.LoadFile(path) }

// TrainSurrogate fits the paper's decision-tree regressor (MSE criterion,
// unbounded depth, single-sample leaves) for one application's cycles.
func TrainSurrogate(d *Dataset, app string) (*Tree, error) {
	return TrainSurrogateOpt(d, app, TreeOptions{})
}

// TrainSurrogateOpt is TrainSurrogate with explicit training options: set
// opt.Workers for the deterministic parallel build (byte-identical model at
// every worker count).
func TrainSurrogateOpt(d *Dataset, app string, opt TreeOptions) (*Tree, error) {
	y, err := d.Target(app)
	if err != nil {
		return nil, err
	}
	return dtree.Train(d.X, y, opt)
}

// FeatureImportance computes the paper's permutation feature importance for
// a trained surrogate over the dataset's rows: repeats shuffles per feature
// scored by mean absolute error, normalised to signed percentages.
func FeatureImportance(t *Tree, d *Dataset, app string, repeats int, seed int64) ([]Importance, error) {
	return FeatureImportanceOpt(t, d, app, ImportanceOptions{Repeats: repeats, Seed: seed})
}

// FeatureImportanceOpt is FeatureImportance with explicit options; features
// are scored across opt.Workers goroutines with a deterministic reduction,
// so the result is identical at every worker count.
func FeatureImportanceOpt(t *Tree, d *Dataset, app string, opt ImportanceOptions) ([]Importance, error) {
	y, err := d.Target(app)
	if err != nil {
		return nil, err
	}
	return dtree.PermutationImportanceOpt(t, d.X, y, d.FeatureNames, opt)
}

// TopImportances returns the n largest-magnitude importances, descending.
func TopImportances(imps []Importance, n int) []Importance { return dtree.TopN(imps, n) }

// Custom-kernel types: declare a new workload ("the modelling approach can
// be easily applied to new codes") as arrays + loops + per-iteration ops.
type (
	// CustomKernel declares a synthetic workload.
	CustomKernel = workload.CustomKernel
	// CustomLoop is one loop of a custom kernel.
	CustomLoop = workload.CustomLoop
	// CustomOp is one operation of a custom loop body.
	CustomOp = workload.CustomOp
	// OpKind selects a custom operation.
	OpKind = workload.OpKind
)

// TeaLeaf solver choices (the real mini-app's tl_use_* options); the paper
// runs SolverCG.
const (
	SolverCG     = workload.SolverCG
	SolverJacobi = workload.SolverJacobi
	SolverCheby  = workload.SolverCheby
)

// Custom-op kinds.
const (
	OpLoad  = workload.OpLoad
	OpStore = workload.OpStore
	OpAdd   = workload.OpAdd
	OpMul   = workload.OpMul
	OpFMA   = workload.OpFMA
	OpDiv   = workload.OpDiv
)

// NewCustomWorkload validates a kernel description and returns a Workload
// usable everywhere the built-in applications are (Simulate, Collect,
// surrogates, experiments).
func NewCustomWorkload(spec CustomKernel) (Workload, error) {
	return workload.NewCustom(spec)
}
