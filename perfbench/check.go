package main

import (
	"fmt"
	"math"
	"sync"

	"armdse"
	"armdse/internal/dataset"
	"armdse/internal/params"
	"armdse/internal/search"
)

// defaultSeed is the seed the recorded dataset digests belong to.
const defaultSeed = 1

// goldenSHA256 holds the SHA-256 of each workload's compacted dataset CSV at
// the default seed, keyed "size/workload". A traced exact-sweep run also
// collects its configs through the fleet and requires the same bytes: that
// is the fleet's byte-identity gate. Regenerate with -record after a change
// that is meant to alter datasets.
var goldenSHA256 = map[string]string{
	"full/exact-sweep":  "a7fcd1366c34740295361f7229df4e09a4e4e9567891f55f9a9ef0faaf39924a",
	"full/adaptive-ucb": "d83e1ffd23740a7048b3cde212af0d5ab95ebcbb02b46af271bc11ab269d1dd6",
	"tiny/exact-sweep":  "ecc432c9b8eda176380abd0d500e94c08e25d7a8d46528da9bd5da8aa465f919",
	"tiny/adaptive-ucb": "46199c53613e38a30dfdbe2218078965f867b762d3f761c10294e8ad1eaae6ad",
}

// goldenSurrogateAccPct holds surrogate_acc_pct at the default seed, keyed
// as goldenSHA256. At that seed the dataset digest already pins
// dataset_accuracy_pct and front_hv, which follow from the dataset; the
// surrogate's accuracy also depends on the tree code, so the gate holds it
// to within fidelityTolerance of the recorded value. The metric repeats
// exactly for a seed, but its spread across seeds forces a wide bound in
// BENCHMARK.json; this is the tight check on fidelity.
var goldenSurrogateAccPct = map[string]float64{
	"full/exact-sweep":  56.27293234854598,
	"full/adaptive-ucb": 82.95671533302628,
	"tiny/exact-sweep":  -32.2877981355235,
	"tiny/adaptive-ucb": 63.69747750847985,
}

// fidelityTolerance is the relative drop in surrogate accuracy, against the
// recorded value, that the gate allows at the default seed.
const fidelityTolerance = 0.01

// Sample sizes for the gate's exact re-simulation, outside the timed phase.
const (
	exactSample     = 8  // exact rows re-simulated per run
	escalatedSample = 8  // escalated rows re-simulated away from the default seed
	predictedSample = 64 // predicted rows scored for dataset_accuracy_pct
)

// verdict is the correctness gate's outcome for one run.
type verdict struct {
	problems      []string
	badConfigs    map[int]bool // dataset row positions that failed a check
	accuracyPct   float64      // dataset_accuracy_pct
	referenceRuns int          // exact re-simulations made
}

// checkSurrogateAccuracy holds surrogate_acc_pct at the default seed to the
// recorded value, less fidelityTolerance.
func (v *verdict) checkSurrogateAccuracy(r *runner, size string, acc float64) {
	if r.seed != defaultSeed {
		return
	}
	key := size + "/" + r.def.Name
	if want, ok := goldenSurrogateAccPct[key]; !ok {
		v.fail(-1, "no recorded surrogate accuracy for %s", key)
	} else if acc < want-fidelityTolerance*math.Abs(want) {
		v.fail(-1, "surrogate accuracy %.4f%%, recorded %.4f%%: more than %g%% lower", acc, want, 100*fidelityTolerance)
	}
}

func (v *verdict) fail(row int, format string, args ...any) {
	if len(v.problems) < 20 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
	if row >= 0 {
		v.badConfigs[row] = true
	}
}

// check gates one study: the dataset's rows line up with the recorded
// configurations, every stall breakdown sums to its cycles, exact rows equal
// a fresh exact simulation, and, at the default seed, the CSV digest matches
// the recorded one. It also scores predicted rows against exact simulation.
func check(r *runner, s *study, size string) *verdict {
	v := &verdict{badConfigs: map[int]bool{}}
	if s.failed > 0 {
		v.fail(-1, "%d configs failed in collection", s.failed)
	}
	if r.seed == defaultSeed {
		key := size + "/" + r.def.Name
		if want, ok := goldenSHA256[key]; !ok {
			v.fail(-1, "no recorded digest for %s", key)
		} else if want != s.sha {
			v.fail(-1, "dataset digest %s, recorded %s", s.sha, want)
		}
	}
	d := s.data
	ok := okRows(s.rows)
	if len(ok) != d.Len() {
		v.fail(-1, "dataset has %d rows, collection completed %d", d.Len(), len(ok))
		return v
	}
	classes := armdse.StallClassNames()
	for i, ri := range ok {
		feats := ri.Config.Features()
		for j := range feats {
			if feats[j] != d.X[i][j] {
				v.fail(i, "row %d (index %d): feature %d is %v, config has %v", i, ri.Index, j, d.X[i][j], feats[j])
				break
			}
		}
		for _, app := range d.Apps {
			var total float64
			for _, c := range classes {
				total += d.Aux[dataset.StallColumn(app, c)][i]
			}
			if total != d.Y[app][i] {
				v.fail(i, "row %d (index %d) %s: stalls sum to %v, cycles %v", i, ri.Index, app, total, d.Y[app][i])
			}
		}
	}

	// Exact rows must equal a fresh exact simulation; predicted rows are
	// scored against one.
	var exact, predicted []int
	for i, ri := range ok {
		if ri.Predicted {
			predicted = append(predicted, i)
		} else {
			exact = append(exact, i)
		}
	}
	predShare := float64(len(predicted)) / float64(len(ok))
	nExact := exactSample
	if r.def.Eval == armdse.EvalHybrid {
		nExact = escalatedSample
		if r.seed == defaultSeed {
			nExact = len(exact)
		}
	}
	exact = spaced(exact, nExact)
	predicted = spaced(predicted, predictedSample)
	rows := append(append([]int(nil), exact...), predicted...)
	configs := make([]params.Config, len(rows))
	for k, i := range rows {
		configs[k] = ok[i].Config
	}
	ref, err := simulateAll(configs, r.threads)
	v.referenceRuns = len(rows)
	if err != nil {
		v.fail(-1, "reference simulation: %v", err)
		return v
	}
	var apeSum float64
	var apeN int
	for k, i := range rows {
		for _, app := range d.Apps {
			st := ref[k][app]
			got := d.Y[app][i]
			if ok[i].Predicted {
				apeSum += math.Abs(got-float64(st.Cycles)) / float64(st.Cycles)
				apeN++
				continue
			}
			if got != float64(st.Cycles) {
				v.fail(i, "row %d (index %d) %s: dataset %v cycles, exact simulation %d", i, ok[i].Index, app, got, st.Cycles)
				continue
			}
			for c, name := range classes {
				if d.Aux[dataset.StallColumn(app, name)][i] != float64(st.Stalls[c]) {
					v.fail(i, "row %d (index %d) %s: stall %s differs from exact simulation", i, ok[i].Index, app, name)
					break
				}
			}
		}
	}
	// Exact rows are exact by construction (and checked above); predicted
	// rows carry the sample's mean absolute percentage error.
	v.accuracyPct = 100
	if apeN > 0 {
		v.accuracyPct = 100 * (1 - predShare*apeSum/float64(apeN))
	}
	return v
}

// spaced picks n evenly spaced elements of xs (all of them when n >= len).
func spaced(xs []int, n int) []int {
	if n >= len(xs) {
		return xs
	}
	out := make([]int, n)
	for k := range out {
		out[k] = xs[k*len(xs)/n]
	}
	return out
}

// simulateAll exactly simulates every app of the test suite on each config,
// on fresh simulator objects, spread over threads goroutines.
func simulateAll(configs []params.Config, threads int) ([]map[string]armdse.Stats, error) {
	out := make([]map[string]armdse.Stats, len(configs))
	errs := make([]error, len(configs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			suite := armdse.TestSuite()
			for k := range next {
				m := make(map[string]armdse.Stats, len(suite))
				for _, wl := range suite {
					st, err := armdse.SimulateOn(armdse.BackendSST, configs[k], wl, 0)
					if err != nil {
						errs[k] = fmt.Errorf("%s: %w", wl.Name(), err)
						break
					}
					m[wl.Name()] = st
				}
				out[k] = m
			}
		}()
	}
	for k := range configs {
		next <- k
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// hvBox fixes the normalisation of front_hv: per-app log-cycles between an
// ideal below every observed run and a reference near the 99th percentile
// of random designs, and CostProxy between the same two ends. Fixed, not
// derived from a run's own data, so one run's hypervolume compares with
// another's; points beyond the reference add nothing.
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
func frontHV(d *armdse.Dataset, rows []rowInfo) float64 {
	var total float64
	for _, app := range d.Apps {
		lo, hi := math.Log(hvBox.idealCycles[app]), math.Log(hvBox.refCycles[app])
		var pts []search.ParetoPoint
		for i, ri := range okRows(rows) {
			c := (math.Log(d.Y[app][i]) - lo) / (hi - lo)
			k := (params.CostProxy(ri.Config) - hvBox.idealCost) / (hvBox.refCost - hvBox.idealCost)
			if c < 1 && k < 1 {
				pts = append(pts, search.ParetoPoint{Row: i, Cycles: max(c, 0), Cost: max(k, 0)})
			}
		}
		hv, prevK := 0.0, 1.0
		for _, p := range search.ParetoFront(pts) {
			hv += (1 - p.Cycles) * (prevK - p.Cost)
			prevK = p.Cost
		}
		total += hv
	}
	return total / float64(len(d.Apps))
}
