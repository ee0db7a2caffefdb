package orchestrate

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"armdse/internal/dtree"
	"armdse/internal/isa"
	"armdse/internal/params"
	"armdse/internal/simeng"
	"armdse/internal/stats"
	"armdse/internal/workload"
)

// Per-config evaluation seam. Every design-space point needs a cycle count
// per application; how that number is produced is pluggable. Exact
// simulation is the ground truth; the hybrid answers from a dtree residual
// forest, learned on escalated (exactly-simulated) configs, on top of the
// analytical lower bound (simeng.BoundModel), and any config the forest is
// not confident about escalates to exact simulation, whose result feeds the
// next residual refresh. Selection is by name so it can ride a CLI flag
// (-eval) exactly like the memory backend's -mem.
const (
	// EvalExact runs the full simulator on every configuration — the
	// study's default and the ground-truth reference.
	EvalExact = "exact"
	// EvalHybrid predicts from bounds plus a learned residual when the
	// forest is confident, escalating the rest to exact simulation.
	EvalHybrid = "hybrid"
)

// Evaluators lists the selectable evaluator names.
func Evaluators() []string { return []string{EvalExact, EvalHybrid} }

// Hybrid routing defaults. The escalation threshold is in log-cycle units
// (the residual forest predicts ln(exact/lower), so a between-tree spread
// of 0.04 is roughly ±4% disagreement about the predicted cycle count).
const (
	DefaultEvalEscalate = 0.04
	// evalForestTrees sizes the residual forests: small enough to retrain
	// in milliseconds mid-sweep, large enough for a usable spread signal.
	evalForestTrees = 20
	// evalMinSamplesLeaf regularises the residual trees.
	evalMinSamplesLeaf = 2
)

// hybridWarmup and hybridRefresh cut a fixed source into hybrid
// generations, in configurations: an always-escalated warmup that seeds the
// residual forests, then refresh generations whose barriers refit them.
// Variables only so in-package tests can shrink them.
var hybridWarmup, hybridRefresh = 40, 32

// EvalOptions configure NewEvaluator.
type EvalOptions struct {
	// MaxCycles bounds each exact run; 0 uses the engine default.
	MaxCycles int64
	// Escalate is the hybrid's escalation threshold on the residual
	// forest's log-space spread; 0 uses DefaultEvalEscalate.
	Escalate float64
	// Seed drives the hybrid's residual-training substreams.
	Seed int64
	// Workers bounds residual-training concurrency; 0 uses GOMAXPROCS.
	Workers int
}

// Evaluator evaluates whole configurations: one run record per suite
// application, simulated exactly or predicted by the hybrid. It holds the
// state every worker of a run shares — the program cache and, under the
// hybrid, the residual routing state — while each worker evaluates through
// its own EvalWorker. The collection engine builds one per run; each
// escalated or exact configuration simulates over the worker's pooled
// hierarchy, which cfg.Mem configures.
type Evaluator struct {
	maxCycles int64
	// hybrid is the residual routing state; nil unless the hybrid router
	// is selected. Its forests only change at refit.
	hybrid *hybridState
	cache  *programCache
	tel    *Telemetry
}

// NewEvaluator builds the named evaluator. An empty kind selects EvalExact,
// the study's default.
func NewEvaluator(kind string, opt EvalOptions) (*Evaluator, error) {
	if kind == "" {
		kind = EvalExact
	}
	if !slices.Contains(Evaluators(), kind) {
		return nil, fmt.Errorf("orchestrate: unknown evaluator %q (want one of %v)", kind, Evaluators())
	}
	e := &Evaluator{
		maxCycles: opt.MaxCycles,
		cache:     newProgramCache(),
	}
	if e.maxCycles <= 0 {
		e.maxCycles = simeng.DefaultMaxCycles
	}
	if kind == EvalHybrid {
		e.hybrid = newHybridState(opt.Escalate, opt.Seed, opt.Workers)
	}
	return e, nil
}

// instrument attaches the telemetry hub to the shared program cache and to
// every EvalWorker created afterwards (nil-safe).
func (e *Evaluator) instrument(tel *Telemetry) {
	e.tel = tel
	e.cache.instrument(tel)
}

// refit retrains the hybrid's residual forests on every escalation observed
// so far — the work of a generation barrier. A no-op for the exact
// evaluator.
func (e *Evaluator) refit() {
	if e.hybrid != nil {
		e.tel.evalRefresh(e.hybrid.refresh())
	}
}

// Evaluation is the outcome of evaluating one configuration on a suite.
type Evaluation struct {
	// Stats holds one run record per suite application, in suite order.
	// For exact evaluations it is the simulator's full record; for
	// predicted ones the architectural counts (retired, loads, stores...)
	// are exact stream properties, the cycle count is the hybrid's
	// estimate, and the stall breakdown is the bound model's synthetic
	// attribution (still summing to Cycles). On error it holds only the
	// runs made before the failure, the failing run included.
	Stats []simeng.Stats
	// Predicted reports that Stats came from the learned model rather
	// than exact simulation.
	Predicted bool
	// Confidence is the self-assessed reliability of a predicted
	// evaluation in (0, 1] — a decreasing function of the residual
	// forest's between-tree spread — and zero on exact ones.
	Confidence float64
}

// EvalWorker is one worker's evaluation context. It owns the worker's pooled
// run context (core, hierarchy and stream cursor, reset in place between
// runs) and its telemetry shard, so workers never contend. An EvalWorker is
// single-consumer.
type EvalWorker struct {
	ev    *Evaluator
	rc    *runContext
	stats []simeng.Stats
	plans []appPlan
}

// appPlan is one application's hybrid estimate: its stream statistics and
// bounds, its residual features and the forest's log-space mean. A nil x
// marks an application the hybrid cannot learn from.
type appPlan struct {
	st   isa.StreamStats
	b    simeng.Bounds
	x    []float64
	mean float64
}

// Worker returns the evaluation context of worker index worker, which also
// names its telemetry shard.
func (e *Evaluator) Worker(worker int) *EvalWorker {
	rc := newRunContext()
	rc.tel, rc.worker = e.tel, worker
	return &EvalWorker{ev: e, rc: rc}
}

// Evaluate evaluates configuration index i, cfg, on every application of
// suite. The hybrid escalates all-or-nothing: the whole configuration is
// predicted only when every application clears the escalation threshold,
// otherwise it is simulated exactly — through the same pooled path as the
// exact evaluator, so escalated results are byte-identical to it — and its
// outcomes are kept for the next refit, ordered by i.
//
// The returned Stats alias the worker's buffer and stay valid until its
// next call. A non-nil error is the first per-run failure.
func (w *EvalWorker) Evaluate(suite []workload.Workload, i int, cfg params.Config) (Evaluation, error) {
	e, tel, worker := w.ev, w.ev.tel, w.rc.worker
	tel.beginConfig(worker)
	w.stats = w.stats[:0]
	w.plans = w.plans[:0]
	if e.hybrid != nil {
		if bm, conf, confident := w.estimate(suite, cfg); confident {
			for ai, p := range w.plans {
				cycles := predictCycles(p.b, p.mean)
				var t0 time.Time
				if tel != nil {
					t0 = time.Now()
				}
				ps := bm.PredictedStats(p.st, p.b, cycles)
				if tel != nil {
					tel.appRun(worker, ai, time.Since(t0).Nanoseconds(), ps, nil)
				}
				w.stats = append(w.stats, ps)
			}
			tel.evalDecision(worker, true, conf)
			return Evaluation{Stats: w.stats, Predicted: true, Confidence: conf}, nil
		}
	}
	err := w.simulate(suite, cfg)
	if e.hybrid != nil {
		tel.evalDecision(worker, false, 0)
		if err == nil {
			for ai, p := range w.plans {
				if p.x == nil {
					continue
				}
				lower := max(p.b.Lower, 1)
				e.hybrid.observe(suite[ai].Name(), i, p.x, math.Log(float64(w.stats[ai].Cycles)/float64(lower)))
			}
		}
	}
	return Evaluation{Stats: w.stats}, err
}

// estimate plans every application of suite into w.plans for the hybrid
// and reports whether the whole configuration may be answered without
// simulation, with the lowest per-application confidence. Anything it
// cannot plan — a stats error or a configuration outside the bound model's
// domain — escalates to exact simulation, which reports the error if the
// failure is real.
func (w *EvalWorker) estimate(suite []workload.Workload, cfg params.Config) (bm *simeng.BoundModel, conf float64, confident bool) {
	e := w.ev
	bm, err := simeng.NewBoundModel(cfg.Core, cfg.MemProfile())
	if err != nil {
		return nil, 0, false
	}
	feats := cfg.Features()
	conf, confident = 1, true
	for _, app := range suite {
		st, err := e.cache.getStats(app, cfg.Core.VectorLength, w.rc.worker)
		if err != nil {
			w.plans = append(w.plans, appPlan{})
			confident = false
			continue
		}
		p := appPlan{st: st, b: bm.Bounds(st)}
		p.x = hybridFeatures(feats, bm, p.b)
		mean, std, ok := e.hybrid.decide(app.Name(), p.x)
		p.mean = mean
		confident = confident && ok
		conf = min(conf, spreadConfidence(std))
		w.plans = append(w.plans, p)
	}
	return bm, conf, confident
}

// simulate runs every application of suite on cfg exactly through the
// worker's pooled run context, appending each run record to w.stats. It
// stops at the first failure. Telemetry (per-app wall time, stall
// aggregates, journal staging) rides the same pass; with a nil Telemetry
// the only overhead is a nil check per app.
func (w *EvalWorker) simulate(suite []workload.Workload, cfg params.Config) error {
	e, tel, worker := w.ev, w.ev.tel, w.rc.worker
	for ai, app := range suite {
		prog, err := e.cache.get(app, cfg.Core.VectorLength, worker)
		if err != nil {
			return fmt.Errorf("%s: %w", app.Name(), err)
		}
		var t0 time.Time
		if tel != nil {
			t0 = time.Now()
		}
		st, err := w.rc.simulate(cfg, prog, e.maxCycles)
		if tel != nil {
			tel.appRun(worker, ai, time.Since(t0).Nanoseconds(), st, err)
		}
		w.stats = append(w.stats, st)
		if err != nil {
			return fmt.Errorf("%s: %w", app.Name(), err)
		}
	}
	return nil
}

// spreadConfidence maps the residual forest's between-tree log-space
// spread to (0, 1].
func spreadConfidence(std float64) float64 { return 1 / (1 + std) }

// residualSample is one training observation of the hybrid's residual
// model: the feature vector of a (configuration, application) pair and the
// log-ratio of exact cycles to the analytical lower bound.
type residualSample struct {
	index int
	x     []float64
	y     float64
}

// residualState is the hybrid's learned state for one application: the
// accumulated escalation observations and the forest fitted to them.
// Guarded by the owning hybridState's lock.
type residualState struct {
	samples []residualSample
	forest  *dtree.Forest
}

// hybridState is the shared routing state of hybrid evaluation: per-app
// residual forests plus the observations they retrain from. Forests change
// only at refresh, which the collection engine calls at generation
// barriers, so every routing decision within a generation consults the same
// frozen model at any worker count.
type hybridState struct {
	threshold float64
	seed      int64
	workers   int

	mu   sync.RWMutex
	apps map[string]*residualState
	// gens counts completed refreshes (the training-substream index).
	gens int
}

func newHybridState(threshold float64, seed int64, workers int) *hybridState {
	if threshold <= 0 {
		threshold = DefaultEvalEscalate
	}
	return &hybridState{
		threshold: threshold,
		seed:      seed,
		workers:   workers,
		apps:      make(map[string]*residualState),
	}
}

// decide consults the app's residual forest on x. ok reports whether the
// forest exists and its spread clears the escalation threshold; mean and
// std are the forest's log-space prediction and spread (zero when no forest
// is fitted yet).
func (h *hybridState) decide(app string, x []float64) (mean, std float64, ok bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	rs := h.apps[app]
	if rs == nil || rs.forest == nil {
		return 0, 0, false
	}
	mean, std = rs.forest.PredictStats(x)
	return mean, std, std <= h.threshold
}

// observe folds one escalated (configuration, application) outcome into
// the training set. The config index tags the sample so refresh can order
// the set deterministically regardless of completion order.
func (h *hybridState) observe(app string, index int, x []float64, y float64) {
	h.mu.Lock()
	rs := h.apps[app]
	if rs == nil {
		rs = &residualState{}
		h.apps[app] = rs
	}
	rs.samples = append(rs.samples, residualSample{index: index, x: x, y: y})
	h.mu.Unlock()
}

// refresh refits every app's residual forest on all observations so far.
// The refit is warm-started: each generation retrains only a rotating
// subset of the ensemble (dtree.RefitForest) on the grown sample set, so
// the per-barrier cost is a fraction of a cold retrain. Samples are sorted
// by config index, the forest seed derives from (seed, generation, app
// position) and the retrain rotation is keyed by the generation count, so
// given the same observation sets at each refresh the fitted forests are
// identical at any worker count and arrival order. Returns the total
// number of training samples fitted.
func (h *hybridState) refresh() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	names := make([]string, 0, len(h.apps))
	for name := range h.apps {
		names = append(names, name)
	}
	sort.Strings(names)
	genSeed := stats.SubSeed(h.seed, h.gens)
	// One fan-out over the apps' refits; each writes only its own slot
	// (and sorts only its own samples), and the map is read-only under
	// the held lock.
	fits := make([]*dtree.Forest, len(names))
	dtree.ForEachForest(len(names), h.workers, func(ai, treeWorkers int) {
		rs := h.apps[names[ai]]
		if len(rs.samples) < evalMinSamplesLeaf*2 {
			return
		}
		sort.Slice(rs.samples, func(i, j int) bool { return rs.samples[i].index < rs.samples[j].index })
		x := make([][]float64, len(rs.samples))
		y := make([]float64, len(rs.samples))
		for i, s := range rs.samples {
			x[i], y[i] = s.x, s.y
		}
		f, _, err := dtree.RefitForest(rs.forest, x, y, dtree.RefitOptions{
			ForestOptions: dtree.ForestOptions{
				Trees:          evalForestTrees,
				MinSamplesLeaf: evalMinSamplesLeaf,
				Seed:           stats.SubSeed(genSeed, ai),
				Workers:        treeWorkers,
			},
			Gen: h.gens,
		})
		// Training can only fail on an empty set, which the size guard
		// excludes; keep the previous forest if it somehow does.
		if err == nil {
			fits[ai] = f
		}
	})
	var total int64
	for ai, name := range names {
		if fits[ai] != nil {
			rs := h.apps[name]
			rs.forest = fits[ai]
			total += int64(len(rs.samples))
		}
	}
	h.gens++
	return total
}

// predictCycles turns the residual forest's log-space mean into a cycle
// count, clamped into the analytical bracket.
func predictCycles(b simeng.Bounds, logMean float64) int64 {
	c := int64(math.Round(float64(b.Lower) * math.Exp(logMean)))
	if c < b.Lower {
		c = b.Lower
	}
	if c > b.Upper {
		c = b.Upper
	}
	return c
}

// hybridFeatures builds the residual feature vector of one (configuration,
// application) pair: the canonical 30 config features plus the bound
// model's derived features.
func hybridFeatures(cfgFeatures []float64, bm *simeng.BoundModel, b simeng.Bounds) []float64 {
	x := make([]float64, 0, len(cfgFeatures)+simeng.NumBoundFeatures)
	x = append(x, cfgFeatures...)
	return bm.AppendFeatures(x, b)
}
