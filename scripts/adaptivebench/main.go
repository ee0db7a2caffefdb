// Command adaptivebench measures the adaptive search loop's sample
// efficiency: how well does a budget-limited run recover the full uniform
// sweep's feature-importance ranking? It collects one full uniform sweep as
// the reference, then scores uniform (control) and ucb (adaptive) runs at a
// series of smaller budgets by the Spearman rank correlation between each
// run's forest permutation importances and the reference's, averaged over
// the applications. The uniform control at budget b is the first b rows of
// the reference sweep — by the indexed-sampling contract those are exactly
// what `dsegen -samples b` would simulate, so no re-simulation is needed.
//
// Output is one JSON object on stdout, embedded by scripts/bench.sh as the
// "adaptive_sweep" entry of BENCH_simeng.json.
//
// With -acq the command instead benchmarks the generation barrier itself —
// the wall time the simulation workers sit idle while the proposer refits
// its forests and scores the candidate pool. It compares the pre-change
// acquisition cost (cold full-ensemble refits, serial scoring: -search-workers
// 1 with Refit=Trees) against the current one (warm rotating refits, chunked
// parallel scoring), on synthetic completed rows so no simulation time is
// mixed into the measurement, and optionally times two real end-to-end
// adaptive sweeps — serial-cold vs warm-parallel, each a faithful adaptive
// run under its own acquisition regime (the streams differ: Refit is part of
// the proposal digest). The JSON lands in BENCH_simeng.json as the
// "acquisition" entry.
//
// With -hv it instead scores each strategy on its own objective: the
// hypervolume of the cycles-vs-CostProxy Pareto front a budget-limited run
// finds (front_hv, normalised as in perfbench), per seed, for uniform (the
// control), ucb and ei. The defaults are perfbench's adaptive-ucb geometry:
// budget 1024, batch 64, hybrid evaluator at escalation threshold 2.0.
//
// Usage:
//
//	go run ./scripts/adaptivebench -full 4000 -budgets 1000,2000,4000
//	go run ./scripts/adaptivebench -acq -acq-sweep 320
//	go run ./scripts/adaptivebench -hv -hv-seeds 1,2,3,4,5,6,7,8 -workers 2
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"armdse"
	"armdse/internal/dataset"
	"armdse/internal/dtree"
	"armdse/internal/orchestrate"
	"armdse/internal/params"
	"armdse/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "adaptivebench:", err)
		os.Exit(1)
	}
}

type point struct {
	Configs        int     `json:"configs"`
	UniformRhoMean float64 `json:"uniform_rho_mean"`
	UniformRhoMin  float64 `json:"uniform_rho_min"`
	UCBRhoMean     float64 `json:"ucb_rho_mean"`
	UCBRhoMin      float64 `json:"ucb_rho_min"`
	UCBWallMs      int64   `json:"ucb_wall_ms"`
}

type reportJSON struct {
	Description string  `json:"description"`
	Seed        int64   `json:"seed"`
	FullSamples int     `json:"full_samples"`
	FullWallMs  int64   `json:"full_wall_ms"`
	Trees       int     `json:"trees"`
	Repeats     int     `json:"repeats"`
	Points      []point `json:"points"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("adaptivebench", flag.ContinueOnError)
	var (
		full    = fs.Int("full", 4000, "full-sweep reference budget (configs)")
		budgets = fs.String("budgets", "1000,2000,4000", "comma-separated adaptive budgets to score")
		seed    = fs.Int64("seed", 11, "sampling seed")
		workers = fs.Int("workers", 0, "worker pool size (0 = all cores)")
		trees   = fs.Int("trees", 20, "forest size for the importance models")
		repeats = fs.Int("repeats", 5, "permutation-importance repeats")
		kappa   = fs.Float64("kappa", 0, "ucb exploration weight (0 = default)")
		batch   = fs.Int("batch", 0, "proposal batch size: configs per generation barrier (0 = default)")
		refCSV  = fs.String("ref", "", "reference-sweep CSV cache: load it if the file exists, else collect and write it (collection parameters must match — the cache is keyed by nothing but its path)")

		acq      = fs.Bool("acq", false, "benchmark the acquisition barrier (cold-serial vs warm-parallel) instead of the sample-efficiency study")
		acqGens  = fs.Int("acq-gens", 8, "acq mode: model-guided generations to time")
		acqPrior = fs.Int("acq-prior", 512, "acq mode: synthetic completed rows seeding the first refit")
		acqPool  = fs.Int("acq-pool", 0, "acq mode: candidate pool scored per generation (0 = proposer default, 8x batch)")
		acqBatch = fs.Int("acq-batch", 64, "acq mode: proposal batch size")
		acqSweep = fs.Int("acq-sweep", 320, "acq mode: budget for the end-to-end adaptive sweep timing (0 skips it)")

		hv         = fs.Bool("hv", false, "score front hypervolume per seed for uniform, ucb and ei instead of the sample-efficiency study")
		hvSeeds    = fs.String("hv-seeds", "1,2,3,4,5,6,7,8", "hv mode: comma-separated seeds")
		hvBudget   = fs.Int("hv-budget", 1024, "hv mode: configs per run")
		hvEval     = fs.String("hv-eval", armdse.EvalHybrid, "hv mode: evaluator (exact, bound or hybrid)")
		hvEscalate = fs.Float64("hv-escalate", 2.0, "hv mode: hybrid escalation threshold")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *acq {
		return runAcq(*seed, *workers, *trees, *acqGens, *acqPrior, *acqPool, *acqBatch, *acqSweep)
	}
	if *hv {
		seeds, err := parseInts(*hvSeeds, 0, math.MaxInt)
		if err != nil {
			return err
		}
		return runHV(seeds, *hvBudget, *batch, *workers, *hvEval, *hvEscalate)
	}
	bs, err := parseInts(*budgets, 1, *full)
	if err != nil {
		return err
	}

	ctx := context.Background()
	suite := armdse.TestSuite()
	apps := armdse.SuiteNames(suite)

	t0 := time.Now()
	var refData *dataset.Dataset
	if *refCSV != "" {
		if d, err := dataset.LoadFile(*refCSV); err == nil {
			if d.Len() != *full {
				return fmt.Errorf("reference cache %s holds %d configs, want %d (stale cache?)", *refCSV, d.Len(), *full)
			}
			refData = d
			fmt.Fprintf(os.Stderr, "reference sweep: %d configs loaded from %s\n", d.Len(), *refCSV)
		}
	}
	if refData == nil {
		ref, err := armdse.Collect(ctx, armdse.CollectOptions{
			Seed: *seed, Samples: *full, Workers: *workers, Suite: suite,
		})
		if err != nil {
			return err
		}
		refData = ref.Data
		if *refCSV != "" {
			if err := refData.SaveFile(*refCSV); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "reference sweep: %d configs in %s\n", refData.Len(), time.Since(t0).Round(time.Second))
	}
	fullWall := time.Since(t0)

	// impOf trains a forest on d and scores its permutation importances on
	// the reference sweep's rows. The common evaluation set (and the shared
	// shuffle seed) makes the comparison paired: two runs' importance
	// vectors differ only through the models their samples trained, not
	// through which rows happened to be shuffled.
	// Cycle counts span orders of magnitude across the design space, so an
	// MAE-based importance on raw cycles is dominated by the slowest
	// configurations. Training and scoring in log space (as the proposer's
	// own online forests do) measures relative-error structure instead,
	// which is the ranking the paper's analysis cares about.
	logOf := func(y []float64) []float64 {
		out := make([]float64, len(y))
		for i, v := range y {
			out[i] = math.Log(math.Max(v, 1))
		}
		return out
	}
	impOf := func(d *dataset.Dataset, app string) ([]float64, error) {
		y, err := d.Target(app)
		if err != nil {
			return nil, err
		}
		f, err := dtree.TrainForest(d.X, logOf(y), dtree.ForestOptions{Trees: *trees, Seed: *seed, Workers: *workers})
		if err != nil {
			return nil, err
		}
		refY, err := refData.Target(app)
		if err != nil {
			return nil, err
		}
		imps, err := dtree.PermutationImportanceModel(f, refData.X, logOf(refY), refData.FeatureNames,
			dtree.ImportanceOptions{Repeats: *repeats, Seed: *seed, Workers: *workers})
		if err != nil {
			return nil, err
		}
		vec := make([]float64, len(imps))
		maxImp := 0.0
		for _, im := range imps {
			vec[im.Index] = math.Abs(im.MeanErrorIncrease)
			if vec[im.Index] > maxImp {
				maxImp = vec[im.Index]
			}
		}
		// Clamp the noise floor: a permutation importance below 1% of the
		// top feature's is measurement noise, and leaving such features
		// with distinct tiny values would assign the ~two-thirds of the
		// space that does not matter random ranks. Zeroing them makes the
		// irrelevant block an exact tie, which the fractional-rank Spearman
		// handles as intended — the coefficient then measures agreement on
		// the ranking that matters.
		for i, v := range vec {
			if v < 0.01*maxImp {
				vec[i] = 0
			}
		}
		return vec, nil
	}
	refImp := map[string][]float64{}
	for _, app := range apps {
		imp, err := impOf(refData, app)
		if err != nil {
			return err
		}
		refImp[app] = imp
	}
	rhoOf := func(d *dataset.Dataset) (mean, min float64, err error) {
		min = 1
		for _, app := range apps {
			imp, err := impOf(d, app)
			if err != nil {
				return 0, 0, err
			}
			rho, err := stats.SpearmanRank(refImp[app], imp)
			if err != nil {
				return 0, 0, err
			}
			mean += rho / float64(len(apps))
			if rho < min {
				min = rho
			}
		}
		return mean, min, nil
	}

	rep := reportJSON{
		Description: "Spearman rank correlation of forest feature importances vs the full uniform sweep, per budget: uniform prefix (control) vs ucb adaptive proposals",
		Seed:        *seed,
		FullSamples: refData.Len(),
		FullWallMs:  fullWall.Milliseconds(),
		Trees:       *trees,
		Repeats:     *repeats,
	}
	for _, b := range bs {
		// Uniform control: the budget-b prefix of the reference sweep.
		sub := dataset.New(refData.FeatureNames, apps)
		for i := 0; i < b && i < refData.Len(); i++ {
			targets := map[string]float64{}
			for _, app := range apps {
				y, err := refData.Target(app)
				if err != nil {
					return err
				}
				targets[app] = y[i]
			}
			if err := sub.Append(refData.X[i], targets); err != nil {
				return err
			}
		}
		uMean, uMin, err := rhoOf(sub)
		if err != nil {
			return err
		}

		prop, err := armdse.NewProposer(armdse.ProposeOptions{
			Strategy: armdse.StrategyUCB,
			Seed:     *seed,
			Budget:   b,
			Batch:    *batch,
			Kappa:    *kappa,
			Workers:  *workers,
			Apps:     apps,
		})
		if err != nil {
			return err
		}
		t1 := time.Now()
		adaptive, err := armdse.Collect(ctx, armdse.CollectOptions{
			Suite: suite, Workers: *workers, Batches: prop,
		})
		if err != nil {
			return err
		}
		aMean, aMin, err := rhoOf(adaptive.Data)
		if err != nil {
			return err
		}
		rep.Points = append(rep.Points, point{
			Configs:        b,
			UniformRhoMean: round3(uMean),
			UniformRhoMin:  round3(uMin),
			UCBRhoMean:     round3(aMean),
			UCBRhoMin:      round3(aMin),
			UCBWallMs:      time.Since(t1).Milliseconds(),
		})
		fmt.Fprintf(os.Stderr, "budget %d: uniform rho %.3f (min %.3f), ucb rho %.3f (min %.3f)\n",
			b, uMean, uMin, aMean, aMin)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// parseInts parses a comma-separated list of integers in [lo, hi].
func parseInts(list string, lo, hi int) ([]int, error) {
	var out []int
	for _, s := range strings.Split(list, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < lo || v > hi {
			return nil, fmt.Errorf("bad value %q (must be in %d..%d)", s, lo, hi)
		}
		out = append(out, v)
	}
	return out, nil
}

// hvBox is the fixed normalisation of front_hv, the same as perfbench's:
// per-app log-cycles between an ideal below every observed run and a
// reference near the 99th percentile of random designs, and CostProxy
// between the same two ends. Being fixed, one run's hypervolume compares
// with another's; points beyond the reference add nothing.
var hvBox = struct {
	idealCycles, refCycles map[string]float64
	idealCost, refCost     float64
}{
	idealCycles: map[string]float64{"STREAM": 4e3, "miniBUDE": 1e3, "TeaLeaf": 5e4, "MiniSweep": 1.5e4},
	refCycles:   map[string]float64{"STREAM": 1e6, "miniBUDE": 5e4, "TeaLeaf": 3e5, "MiniSweep": 1.5e5},
	idealCost:   50,
	refCost:     900,
}

// frontHV is the mean over apps of the hypervolume the dataset's
// cycles-vs-CostProxy Pareto front dominates in the normalised box, where
// the ideal corner is 0 and the reference point 1 on both axes.
func frontHV(d *dataset.Dataset) (float64, error) {
	cost := make([]float64, d.Len())
	for i := range cost {
		cfg, err := params.FromFeatures(d.X[i])
		if err != nil {
			return 0, fmt.Errorf("row %d: %w", i, err)
		}
		cost[i] = (params.CostProxy(cfg) - hvBox.idealCost) / (hvBox.refCost - hvBox.idealCost)
	}
	var total float64
	for _, app := range d.Apps {
		y, err := d.Target(app)
		if err != nil {
			return 0, err
		}
		lo, hi := math.Log(hvBox.idealCycles[app]), math.Log(hvBox.refCycles[app])
		var pts []armdse.ParetoPoint
		for i, v := range y {
			c := (math.Log(v) - lo) / (hi - lo)
			if c < 1 && cost[i] < 1 {
				pts = append(pts, armdse.ParetoPoint{Row: i, Cycles: max(c, 0), Cost: max(cost[i], 0)})
			}
		}
		hv, prevK := 0.0, 1.0
		for _, p := range armdse.ParetoFront(pts) {
			hv += (1 - p.Cycles) * (prevK - p.Cost)
			prevK = p.Cost
		}
		total += hv
	}
	return total / float64(len(d.Apps)), nil
}

// hvSeedJSON is one seed's front_hv per strategy.
type hvSeedJSON struct {
	Seed int64              `json:"seed"`
	HV   map[string]float64 `json:"front_hv"`
}

type hvJSON struct {
	Description string             `json:"description"`
	Budget      int                `json:"budget"`
	Batch       int                `json:"batch"`
	Eval        string             `json:"eval"`
	Escalate    float64            `json:"escalate,omitempty"`
	Seeds       []hvSeedJSON       `json:"seeds"`
	Mean        map[string]float64 `json:"mean"`
	// WinsVsUniform counts the seeds at which a strategy's front_hv beats
	// the uniform control's.
	WinsVsUniform map[string]int `json:"wins_vs_uniform"`
}

// runHV collects one adaptive run per (seed, strategy) and reports each
// run's front_hv, with uniform as the control.
func runHV(seeds []int, budget, batch, workers int, eval string, escalate float64) error {
	if batch <= 0 {
		batch = 64 // the proposer's own default
	}
	suite := armdse.TestSuite()
	apps := armdse.SuiteNames(suite)
	strategies := armdse.SearchStrategies()
	rep := hvJSON{
		Description:   "Front hypervolume (cycles vs CostProxy, normalised as perfbench's front_hv) per seed and strategy; uniform is the control",
		Budget:        budget,
		Batch:         batch,
		Eval:          eval,
		Mean:          map[string]float64{},
		WinsVsUniform: map[string]int{},
	}
	if eval == armdse.EvalHybrid {
		rep.Escalate = escalate
	}
	for _, seed := range seeds {
		row := hvSeedJSON{Seed: int64(seed), HV: map[string]float64{}}
		raw := map[string]float64{}
		for _, strategy := range strategies {
			prop, err := armdse.NewProposer(armdse.ProposeOptions{
				Strategy: strategy, Seed: int64(seed), Budget: budget, Batch: batch,
				Workers: workers, Apps: apps,
			})
			if err != nil {
				return err
			}
			res, err := armdse.Collect(context.Background(), armdse.CollectOptions{
				Seed: int64(seed), Batches: prop, Workers: workers, Suite: suite,
				Eval: eval, EvalEscalate: escalate,
			})
			if err != nil {
				return err
			}
			hv, err := frontHV(res.Data)
			if err != nil {
				return err
			}
			raw[strategy] = hv
			row.HV[strategy] = math.Round(hv*1e4) / 1e4
			rep.Mean[strategy] += hv / float64(len(seeds))
		}
		for _, strategy := range strategies {
			if raw[strategy] > raw[armdse.StrategyUniform] {
				rep.WinsVsUniform[strategy]++
			}
		}
		fmt.Fprintf(os.Stderr, "seed %d: uniform %.4f, ucb %.4f, ei %.4f\n", seed,
			row.HV[armdse.StrategyUniform], row.HV[armdse.StrategyUCB], row.HV[armdse.StrategyEI])
		rep.Seeds = append(rep.Seeds, row)
	}
	for strategy, m := range rep.Mean {
		rep.Mean[strategy] = math.Round(m*1e4) / 1e4
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// acqJSON is the "acquisition" entry of BENCH_simeng.json: per-generation
// barrier wall time under the pre-change acquisition (cold full-ensemble
// refits at one worker) vs the current one (warm rotating refits, chunked
// parallel scoring), with the warm-refit saving broken out separately and an
// optional end-to-end adaptive sweep pair. All *_ms figures are means per
// generation except the sweep pair, which is total wall time.
type acqJSON struct {
	Description         string  `json:"description"`
	Seed                int64   `json:"seed"`
	Workers             int     `json:"workers"`
	Apps                int     `json:"apps"`
	Trees               int     `json:"trees"`
	PriorRows           int     `json:"prior_rows"`
	Pool                int     `json:"pool"`
	Batch               int     `json:"batch"`
	Gens                int     `json:"gens"`
	BarrierColdSerialMs float64 `json:"barrier_cold_serial_ms"`
	BarrierWarmParMs    float64 `json:"barrier_warm_parallel_ms"`
	BarrierSpeedup      float64 `json:"barrier_speedup"`
	PoolScoredPerSec    float64 `json:"pool_scored_per_sec"`
	RefitColdMs         float64 `json:"refit_cold_ms"`
	RefitWarmMs         float64 `json:"refit_warm_ms"`
	RefitSpeedup        float64 `json:"refit_speedup"`
	SweepBudget         int     `json:"sweep_budget,omitempty"`
	SweepSerialColdMs   int64   `json:"sweep_serial_cold_ms,omitempty"`
	SweepWarmParMs      int64   `json:"sweep_warm_parallel_ms,omitempty"`
	SweepSpeedup        float64 `json:"sweep_speedup,omitempty"`
}

// acqCost accumulates the proposer-side cost of a timed generation sequence.
type acqCost struct {
	barrierNs, refitNs, scoreNs int64
	scored                      int
}

// synthRow fabricates a completed row for cfg with deterministic targets (an
// affine function of the encoded features, distinct per application), so the
// barrier is timed against realistic training sets without any simulation.
func synthRow(idx int, cfg params.Config, apps []string) orchestrate.Row {
	f := params.Encode(cfg)
	s := 0.0
	for _, v := range f {
		s += v
	}
	targets := make(map[string]float64, len(apps))
	for ai, app := range apps {
		targets[app] = 1000*float64(ai+1) + float64(ai+1)*s
	}
	return orchestrate.Row{Index: idx, Config: cfg, Features: f, Targets: targets}
}

// measureBarriers times gens model-guided NextBatch calls of a ucb proposer
// over a growing synthetic training set and returns the accumulated barrier
// wall time plus the proposer's own refit/score breakdown. The first
// generation — whose refit is a full ensemble fit under either regime — is
// run untimed so the figures describe the steady-state barrier.
func measureBarriers(seed int64, apps []string, trees, refit, searchWorkers, gens, priorRows, pool, batch int) (acqCost, error) {
	prop, err := armdse.NewProposer(armdse.ProposeOptions{
		Strategy: armdse.StrategyUCB,
		Seed:     seed,
		Budget:   1 << 30,
		Batch:    batch,
		Pool:     pool,
		Trees:    trees,
		Refit:    refit,
		Workers:  searchWorkers,
		Apps:     apps,
	})
	if err != nil {
		return acqCost{}, err
	}
	rows := make([]orchestrate.Row, 0, priorRows+gens*batch)
	for i := 0; i < priorRows; i++ {
		rows = append(rows, synthRow(i, params.ConfigAt(seed, i), apps))
	}
	var c acqCost
	for g := -1; g < gens; g++ {
		t0 := time.Now()
		batchCfgs, ok := prop.NextBatch(rows)
		elapsed := time.Since(t0).Nanoseconds()
		if !ok || len(batchCfgs) == 0 {
			return c, fmt.Errorf("proposer exhausted at generation %d", g)
		}
		if g >= 0 { // generation -1 is the untimed warm-up (full first fit)
			c.barrierNs += elapsed
			st := prop.LastBatchStats()
			c.refitNs += st.RefitNanos
			c.scoreNs += st.ScoreNanos
			c.scored += st.PoolScored
		}
		for _, cfg := range batchCfgs {
			rows = append(rows, synthRow(len(rows), cfg, apps))
		}
	}
	return c, nil
}

func runAcq(seed int64, workers, trees, gens, priorRows, pool, batch, sweepBudget int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if trees <= 0 {
		trees = 20
	}
	if pool <= 0 {
		pool = 8 * batch // the proposer's own default
	}
	suite := armdse.TestSuite()
	apps := armdse.SuiteNames(suite)

	// Cold-serial is the pre-change acquisition: every barrier retrains the
	// full ensembles (Refit >= Trees) on one worker. Warm-parallel is the
	// current default: rotating-subset refits across the worker pool. The
	// proposal streams differ (Refit is part of the digest), but each is a
	// faithful end-to-end acquisition under its own regime.
	cold, err := measureBarriers(seed, apps, trees, trees, 1, gens, priorRows, pool, batch)
	if err != nil {
		return err
	}
	warm, err := measureBarriers(seed, apps, trees, 0, workers, gens, priorRows, pool, batch)
	if err != nil {
		return err
	}
	g := float64(gens)
	rep := acqJSON{
		Description:         "Per-generation acquisition barrier (forest refit + candidate-pool scoring while simulation workers idle): cold full-ensemble serial refits (pre-change) vs warm rotating refits with chunked parallel scoring; synthetic targets, no simulation in the timings",
		Seed:                seed,
		Workers:             workers,
		Apps:                len(apps),
		Trees:               trees,
		PriorRows:           priorRows,
		Pool:                pool,
		Batch:               batch,
		Gens:                gens,
		BarrierColdSerialMs: round3(float64(cold.barrierNs) / 1e6 / g),
		BarrierWarmParMs:    round3(float64(warm.barrierNs) / 1e6 / g),
		BarrierSpeedup:      round3(float64(cold.barrierNs) / float64(warm.barrierNs)),
		PoolScoredPerSec:    math.Round(float64(warm.scored) / (float64(warm.scoreNs) / 1e9)),
		RefitColdMs:         round3(float64(cold.refitNs) / 1e6 / g),
		RefitWarmMs:         round3(float64(warm.refitNs) / 1e6 / g),
		RefitSpeedup:        round3(float64(cold.refitNs) / float64(warm.refitNs)),
	}
	fmt.Fprintf(os.Stderr, "barrier: cold-serial %.1f ms/gen, warm-parallel %.1f ms/gen (%.2fx); refit %.1f -> %.1f ms/gen (%.2fx); %.0f pool configs/sec\n",
		rep.BarrierColdSerialMs, rep.BarrierWarmParMs, rep.BarrierSpeedup,
		rep.RefitColdMs, rep.RefitWarmMs, rep.RefitSpeedup, rep.PoolScoredPerSec)

	if sweepBudget > 0 {
		ctx := context.Background()
		sweep := func(searchWorkers, refit int) (time.Duration, error) {
			prop, err := armdse.NewProposer(armdse.ProposeOptions{
				Strategy: armdse.StrategyUCB,
				Seed:     seed,
				Budget:   sweepBudget,
				Batch:    batch,
				Trees:    trees,
				Refit:    refit,
				Workers:  searchWorkers,
				Apps:     apps,
			})
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			_, err = armdse.Collect(ctx, armdse.CollectOptions{Suite: suite, Workers: workers, Batches: prop})
			return time.Since(t0), err
		}
		dCold, err := sweep(1, trees)
		if err != nil {
			return err
		}
		dWarm, err := sweep(workers, 0)
		if err != nil {
			return err
		}
		rep.SweepBudget = sweepBudget
		rep.SweepSerialColdMs = dCold.Milliseconds()
		rep.SweepWarmParMs = dWarm.Milliseconds()
		rep.SweepSpeedup = round3(float64(dCold) / float64(dWarm))
		fmt.Fprintf(os.Stderr, "sweep (%d configs): serial-cold %s, warm-parallel %s (%.2fx)\n",
			sweepBudget, dCold.Round(time.Millisecond), dWarm.Round(time.Millisecond), rep.SweepSpeedup)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
