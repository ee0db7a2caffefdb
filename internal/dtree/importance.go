package dtree

import (
	"fmt"
	"math"
	"sort"

	"armdse/internal/stats"
)

// Importance is one feature's permutation importance. Pct is the paper's
// presentation: the share of the summed error increase attributable to the
// feature, signed so that a positive value means increasing the parameter
// yields fewer cycles (as the captions of Figs. 3-5 define).
type Importance struct {
	// Feature is the feature's column name.
	Feature string
	// Index is the feature's column index.
	Index int
	// MeanErrorIncrease is the raw mean MAE increase over the repeats.
	MeanErrorIncrease float64
	// Pct is the normalised percentage of the total error increase.
	Pct float64
}

// ImportanceOptions configure PermutationImportance.
type ImportanceOptions struct {
	// Repeats is the shuffle count per feature (the paper uses 10);
	// values below 1 are treated as 1.
	Repeats int
	// Seed identifies the shuffle stream. Every (feature, repeat) pair
	// draws from its own indexed splitmix64 substream, so the result is
	// identical at every worker count.
	Seed int64
	// Workers bounds the features scored concurrently; 0 selects
	// GOMAXPROCS, 1 runs serially.
	Workers int
}

// PermutationImportance computes the paper's §VI-B metric: for each feature,
// shuffle its column, re-score the model with mean absolute error, repeat
// opt.Repeats times (the paper uses 10), and take the mean error increase
// over the baseline; finally express each importance as a percentage of the
// sum across features. The sign applied to Pct is the direction of the
// parameter's effect on the target (negative feature-target association =
// "increasing this parameter yields fewer cycles" = positive, matching the
// figure captions).
//
// Features are scored concurrently, each (feature, repeat) shuffle on its
// own RNG substream, and the per-feature increases are reduced to
// percentages in feature order — so the output is byte-identical at every
// worker count.
func PermutationImportance(t *Tree, x [][]float64, y []float64, names []string, opt ImportanceOptions) ([]Importance, error) {
	if len(names) != t.nFeatures {
		return nil, fmt.Errorf("dtree: %d names for %d features", len(names), t.nFeatures)
	}
	if len(x) == 0 {
		return nil, fmt.Errorf("dtree: empty evaluation set")
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("dtree: %d rows but %d targets", len(x), len(y))
	}
	nFeatures := len(names)
	if len(x[0]) != nFeatures {
		return nil, fmt.Errorf("dtree: %d names for rows of %d features", nFeatures, len(x[0]))
	}
	repeats := opt.Repeats
	if repeats < 1 {
		repeats = 1
	}
	var base float64
	for i, row := range x {
		base += math.Abs(t.Predict(row) - y[i])
	}
	base /= float64(len(x))

	n := len(x)
	imps := make([]Importance, nFeatures)
	forEachChunk(nFeatures, opt.Workers, func(lo, hi int) {
		col := make([]float64, n)
		row := make([]float64, nFeatures)
		for f := lo; f < hi; f++ {
			var incSum float64
			for r := 0; r < repeats; r++ {
				for i := range col {
					col[i] = x[i][f]
				}
				rng := stats.NewRand(stats.SubSeed(opt.Seed, f*repeats+r))
				rng.Shuffle(n, func(a, b int) { col[a], col[b] = col[b], col[a] })
				var err float64
				for i := range x {
					copy(row, x[i])
					row[f] = col[i]
					err += math.Abs(t.Predict(row) - y[i])
				}
				incSum += err/float64(n) - base
			}
			inc := incSum / float64(repeats)
			if inc < 0 {
				inc = 0 // uninformative feature; shuffling noise
			}
			imps[f] = Importance{Feature: names[f], Index: f, MeanErrorIncrease: inc}
		}
	})

	// Deterministic reduction: the normalising total and the signs are
	// computed after the join, in feature order.
	var totalIncrease float64
	for f := range imps {
		totalIncrease += imps[f].MeanErrorIncrease
	}
	for f := range imps {
		pct := 0.0
		if totalIncrease > 0 {
			pct = 100 * imps[f].MeanErrorIncrease / totalIncrease
		}
		imps[f].Pct = pct * effectSign(x, y, f)
	}
	return imps, nil
}

// effectSign returns +1 when larger feature values associate with fewer
// cycles (performance-positive, plotted upward in the paper's figures) and
// -1 otherwise.
func effectSign(x [][]float64, y []float64, f int) float64 {
	var sx, sy, sxx, sxy float64
	n := float64(len(x))
	for i, row := range x {
		sx += row[f]
		sy += y[i]
		sxx += row[f] * row[f]
		sxy += row[f] * y[i]
	}
	cov := sxy/n - (sx/n)*(sy/n)
	if cov > 0 {
		return -1 // more of the parameter, more cycles: negative effect
	}
	return 1
}

// TopN returns the n importances with the largest magnitude, ordered
// descending by |Pct| — the layout of the paper's Figs. 3-5, which plot the
// "ten greatest feature importance percentages". A negative n selects none.
func TopN(imps []Importance, n int) []Importance {
	sorted := append([]Importance(nil), imps...)
	sort.Slice(sorted, func(a, b int) bool {
		return math.Abs(sorted[a].Pct) > math.Abs(sorted[b].Pct)
	})
	n = max(0, min(n, len(sorted)))
	return sorted[:n]
}
