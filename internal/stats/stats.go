// Package stats implements the paper's evaluation metrics: the percentage of
// predictions within a confidence interval of the simulated truth (Fig. 2),
// the mean prediction accuracy (the headline 93.38% figure), and the
// mean-speedup curves over parameter values (Figs. 6-8). It also holds the
// splitmix64 substream derivation (SubSeed, NewRand) that configuration
// sampling, proposal pools and tree training all draw from.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// WithinPct returns the percentage of predictions whose relative error
// |pred-truth|/truth is at most pct percent. Rows with zero truth are
// counted as within only if the prediction is also zero.
func WithinPct(pred, truth []float64, pct float64) (float64, error) {
	if len(pred) != len(truth) {
		return 0, fmt.Errorf("stats: %d predictions but %d truths", len(pred), len(truth))
	}
	if len(pred) == 0 {
		return 0, fmt.Errorf("stats: empty input")
	}
	in := 0
	for i := range pred {
		if truth[i] == 0 {
			if pred[i] == 0 {
				in++
			}
			continue
		}
		if math.Abs(pred[i]-truth[i])/math.Abs(truth[i]) <= pct/100 {
			in++
		}
	}
	return 100 * float64(in) / float64(len(pred)), nil
}

// Fig2Intervals are the confidence intervals evaluated for the Fig. 2
// reproduction.
var Fig2Intervals = []float64{0.5, 1, 2, 5, 10, 25}

// ConfidenceCurve evaluates WithinPct at each threshold — one application's
// series in Fig. 2.
func ConfidenceCurve(pred, truth []float64, pcts []float64) ([]float64, error) {
	out := make([]float64, len(pcts))
	for i, p := range pcts {
		v, err := WithinPct(pred, truth, p)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// MeanAccuracyPct returns 100 minus the mean relative error in percent: the
// paper's "mean accuracy of all results is 93.38%, meaning the average
// prediction is 6.62% away from the simulated true result". Zero-truth rows
// are skipped.
func MeanAccuracyPct(pred, truth []float64) (float64, error) {
	if len(pred) != len(truth) {
		return 0, fmt.Errorf("stats: %d predictions but %d truths", len(pred), len(truth))
	}
	var s float64
	n := 0
	for i := range pred {
		if truth[i] == 0 {
			continue
		}
		s += math.Abs(pred[i]-truth[i]) / math.Abs(truth[i])
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("stats: no usable rows")
	}
	return 100 * (1 - s/float64(n)), nil
}

// SpeedupCurve converts mean cycle counts per parameter value into speedups
// relative to the first (smallest) value, the presentation of Figs. 6-8:
// "mean speedup observed ... compared to the mean number of cycles the
// minimum value yields".
func SpeedupCurve(meanCycles []float64) ([]float64, error) {
	if len(meanCycles) == 0 {
		return nil, fmt.Errorf("stats: empty curve")
	}
	base := meanCycles[0]
	if base <= 0 {
		return nil, fmt.Errorf("stats: non-positive baseline %g", base)
	}
	out := make([]float64, len(meanCycles))
	for i, c := range meanCycles {
		if c <= 0 {
			return nil, fmt.Errorf("stats: non-positive mean cycles %g at %d", c, i)
		}
		out[i] = base / c
	}
	return out, nil
}

// PctDifference returns the paper's Table I metric: |a-b| as a percentage
// of b.
func PctDifference(a, b float64) float64 {
	if b == 0 {
		return math.Inf(1)
	}
	return 100 * math.Abs(a-b) / math.Abs(b)
}
