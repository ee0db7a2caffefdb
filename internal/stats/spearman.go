package stats

import (
	"fmt"
	"math"
	"sort"
)

// SpearmanRank returns Spearman's rank correlation coefficient between two
// paired samples, such as two feature-importance orderings of the same
// parameters. Ties receive average ranks (the fractional-rank convention),
// which matters for importances: a design space where two thirds of the
// parameters have ~zero importance would otherwise have its coefficient
// dominated by the arbitrary ordering of the irrelevant block. The coefficient is computed as the Pearson
// correlation of the rank vectors, which is exact under ties.
func SpearmanRank(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("stats: rank correlation over %d vs %d values", len(a), len(b))
	}
	if len(a) < 2 {
		return 0, fmt.Errorf("stats: rank correlation needs at least 2 pairs, got %d", len(a))
	}
	ra := fractionalRanks(a)
	rb := fractionalRanks(b)

	ma, mb := Mean(ra), Mean(rb)
	var sab, saa, sbb float64
	for i := range ra {
		da, db := ra[i]-ma, rb[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	if saa == 0 || sbb == 0 {
		// A constant rank vector (all values tied) has no ordering to
		// correlate with.
		return 0, fmt.Errorf("stats: rank correlation of a constant sample")
	}
	return sab / math.Sqrt(saa*sbb), nil
}

// fractionalRanks assigns 1-based ranks with ties sharing the average of
// the ranks they span.
func fractionalRanks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return xs[idx[i]] < xs[idx[j]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}
