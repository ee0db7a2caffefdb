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
package armdse

import (
	"context"
	"net/http"

	"armdse/internal/dataset"
	"armdse/internal/dtree"
	"armdse/internal/obs"
	"armdse/internal/orchestrate"
	"armdse/internal/params"
	"armdse/internal/simeng"
	"armdse/internal/sstmem"
	"armdse/internal/workload"
)

// Core simulation types.
type (
	// Config is one design-space point: a core plus its memory backend.
	Config = params.Config
	// CoreConfig is the Table II core parameter set.
	CoreConfig = simeng.Config
	// MemConfig is the Table III memory parameter set.
	MemConfig = sstmem.Config
	// Stats summarises one simulated run; Cycles is the study's target.
	Stats = simeng.Stats
	// MemoryBackend is the seam between the core and its memory system;
	// sstmem hierarchies (at either fidelity) and the ideal flat memory
	// implement it.
	MemoryBackend = simeng.MemoryBackend
	// StallClass is one bucket of the per-cycle stall attribution.
	StallClass = simeng.StallClass
	// StallBreakdown is a per-class cycle attribution summing to Cycles.
	StallBreakdown = simeng.StallBreakdown
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
	// Forest is a bagged random-forest surrogate (paper future work).
	Forest = dtree.Forest
	// ForestOptions configure random-forest training.
	ForestOptions = dtree.ForestOptions
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

// ConfigAt derives the index-th configuration of seed's sampling stream in
// O(1), without materialising earlier configurations — the indexed config
// source behind Collect's worker-count and resume invariance.
func ConfigAt(seed int64, index int) Config { return params.ConfigAt(seed, index) }

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

// Evaluators lists the recognised evaluator names.
func Evaluators() []string { return orchestrate.Evaluators() }

// Collection engine types; see the orchestrate package for details.
type (
	// CollectOptions configure dataset collection.
	CollectOptions = orchestrate.Options
	// CollectResult is the outcome of a collection run.
	CollectResult = orchestrate.Result
	// ProgressEvent snapshots a running collection (done/failed/total,
	// rows/sec, cycles simulated).
	ProgressEvent = orchestrate.ProgressEvent
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
// non-empty meta string (see RunMeta) is stamped into the journal header
// and must match on OpenJournal.
func CreateStreamAux(path string, featureNames, apps, auxNames []string, meta string) (*StreamWriter, error) {
	return dataset.CreateStreamAux(path, featureNames, apps, auxNames, meta)
}

// OpenJournal opens a collection run's journal the way a local dsegen run
// and a dsegen -fleet coordinator do: it creates the journal when none exists and resumes it (resumed is
// true, and its Done set is the CollectOptions.Skip input) when its columns
// and meta stamp are this run's. A journal of another run is refused and
// left byte-unchanged — resuming it would mix rows from two runs.
func OpenJournal(path string, featureNames, apps, auxNames []string, meta string) (sw *StreamWriter, resumed bool, err error) {
	return dataset.OpenJournal(path, featureNames, apps, auxNames, meta)
}

// RunMeta is a collection journal's identity stamp: seed, sample count and
// suite scale, plus the evaluator when it is not exact and an adaptive
// run's proposer digest.
func RunMeta(seed int64, samples int, paper bool, eval, search string) string {
	return orchestrate.RunMeta(seed, samples, paper, eval, search)
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

// PriorRowsFromJournal reconstructs the completed rows of an interrupted
// batch-mode collection from its journal, sorted by index — the
// CollectOptions.Prior input that lets a resumed adaptive run replay its
// proposal sequence exactly (combine with Skip from the resumed stream
// writer's Done set).
func PriorRowsFromJournal(path string) ([]Row, error) {
	return orchestrate.PriorRowsFromJournal(path)
}

// Telemetry layer types; see internal/obs for the metrics core and
// internal/orchestrate.Telemetry for the engine-facing hub.
type (
	// Telemetry is the collection engine's observability hub: sharded
	// metrics, sweep status, and the structured JSONL run journal. Pass it
	// through CollectOptions.Telemetry; recording is allocation-free and
	// never perturbs dataset output.
	Telemetry = orchestrate.Telemetry
	// SweepStatus is the live status view of a running collection — the
	// monitor endpoint's JSON payload.
	SweepStatus = orchestrate.SweepStatus
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

// CreateRunJournal creates (truncating) a structured JSONL run journal.
func CreateRunJournal(path string) (*RunJournal, error) { return obs.CreateJournal(path) }

// NewTelemetry wires a telemetry hub over an optional metrics registry and an
// optional run journal (either may be nil; a nil hub is also valid
// everywhere one is accepted).
func NewTelemetry(reg *MetricsRegistry, journal *RunJournal) *Telemetry {
	return orchestrate.NewTelemetry(reg, journal)
}

// TelemetryHandler builds the monitor HTTP handler: /metrics (Prometheus
// text), /status (the status function's JSON, e.g. Telemetry.StatusAny),
// /debug/vars (snapshot JSON) and /debug/pprof.
func TelemetryHandler(reg *MetricsRegistry, status func() any) http.Handler {
	return obs.Handler(reg, status)
}

// ServeTelemetry binds addr and serves the handler in the background,
// returning the server and the resolved bound address (":0" picks a port).
func ServeTelemetry(addr string, h http.Handler) (*http.Server, string, error) {
	return obs.Serve(addr, h)
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

// TrainForestSurrogate fits the random-forest surrogate the paper's
// conclusion proposes as future work, for one application's cycles.
func TrainForestSurrogate(d *Dataset, app string, opt ForestOptions) (*Forest, error) {
	y, err := d.Target(app)
	if err != nil {
		return nil, err
	}
	return dtree.TrainForest(d.X, y, opt)
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
