// Command adaptivebench scores each search strategy on its own
// objective: the hypervolume of the cycles-vs-CostProxy Pareto front a
// budget-limited run finds (front_hv, normalised as in perfbench), per
// seed, for uniform (the control), ucb and ei. The defaults are
// perfbench's adaptive-ucb geometry: budget 1024, batch 64, hybrid
// evaluator at escalation threshold 2.0, so the seed-1 ucb value equals
// perfbench's adaptive-ucb front_hv at seed 1.
//
// Output is one JSON object on stdout; per-seed progress goes to stderr.
//
// Usage:
//
//	go run ./scripts/adaptivebench -seeds 1,2,3,4,5,6,7,8 -workers 2
//	go run ./scripts/adaptivebench -seeds 1 -eval exact -budget 512
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"armdse"
	"armdse/internal/dataset"
	"armdse/internal/params"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "adaptivebench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("adaptivebench", flag.ContinueOnError)
	var (
		seeds    = fs.String("seeds", "1,2,3,4,5,6,7,8", "comma-separated seeds")
		budget   = fs.Int("budget", 1024, "configs per run")
		batch    = fs.Int("batch", 0, "proposal batch size: configs per generation barrier (0 = default)")
		workers  = fs.Int("workers", 0, "worker pool size (0 = all cores)")
		eval     = fs.String("eval", armdse.EvalHybrid, "evaluator (exact, bound or hybrid)")
		escalate = fs.Float64("escalate", 2.0, "hybrid escalation threshold")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ss, err := parseInts(*seeds, 0, math.MaxInt)
	if err != nil {
		return err
	}
	return runHV(ss, *budget, *batch, *workers, *eval, *escalate)
}

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
