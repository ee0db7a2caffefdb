package dtree

import (
	"math"

	"armdse/internal/stats"
)

// ForestOptions configure random-forest training.
type ForestOptions struct {
	// Trees is the ensemble size (default 30).
	Trees int
	// MinSamplesLeaf is the per-tree leaf minimum (default 1).
	MinSamplesLeaf int
	// Seed drives bootstrap sampling and feature subsampling. Every tree
	// derives its own splitmix64 substream from (Seed, tree index) — the
	// same indexed derivation params.ConfigAt uses — so the ensemble is
	// identical at every worker count.
	Seed int64
	// Workers bounds the number of trees trained concurrently; 0 selects
	// GOMAXPROCS, 1 trains serially. The trained forest is identical at
	// every value.
	Workers int
}

// Forest is a bagged ensemble of regression trees — the "more complex
// surrogate model" the paper's conclusion proposes as future work. Each tree
// trains on a bootstrap resample with per-split feature subsampling over
// nFeatures/3 features (minimum 1), the regression default, and predictions
// average the ensemble.
type Forest struct {
	trees []*Tree
}

// TrainForest fits a random forest to X and y. Trees train concurrently
// under ForestOptions.Workers; because every tree's bootstrap and feature
// subsampling come from its own indexed substream, the result does not
// depend on scheduling.
func TrainForest(x [][]float64, y []float64, opt ForestOptions) (*Forest, error) {
	f, _, err := RefitForest(nil, x, y, RefitOptions{ForestOptions: opt})
	return f, err
}

// trainTrees is the one bootstrap-and-Train loop behind TrainForest and
// RefitForest: it retrains the count trees from index start on, wrapping
// around the ensemble, in place in f. Tree t draws its bootstrap and split
// seed from substream (opt.Seed, t) whichever worker trains it.
func trainTrees(f *Forest, x [][]float64, y []float64, opt ForestOptions, start, count int) error {
	n := len(x)
	maxFeatures := max(len(x[0])/3, 1)
	errs := make([]error, count)
	forEachChunk(count, opt.Workers, func(lo, hi int) {
		bx := make([][]float64, n)
		by := make([]float64, n)
		for j := lo; j < hi; j++ {
			t := (start + j) % len(f.trees)
			rng := stats.NewRand(stats.SubSeed(opt.Seed, t))
			for i := 0; i < n; i++ {
				k := rng.Intn(n)
				bx[i] = x[k]
				by[i] = y[k]
			}
			f.trees[t], errs[j] = Train(bx, by, Options{
				MinSamplesLeaf: opt.MinSamplesLeaf,
				MaxFeatures:    maxFeatures,
				Seed:           rng.Int63(),
			})
			if errs[j] != nil {
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }

// Predict evaluates the forest on one feature vector.
func (f *Forest) Predict(x []float64) float64 {
	var s float64
	for _, t := range f.trees {
		s += t.Predict(x)
	}
	return s / float64(len(f.trees))
}

// PredictAll evaluates the forest on every row.
func (f *Forest) PredictAll(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = f.Predict(row)
	}
	return out
}

// PredictStats evaluates the forest on one feature vector and returns both
// the ensemble mean and the between-tree standard deviation. The spread is
// the forest's native uncertainty signal: trees that agree have all seen
// enough similar training mass to pin the region down, while disagreement
// marks extrapolation — which is what the hybrid evaluator's
// confidence-based routing keys on.
func (f *Forest) PredictStats(x []float64) (mean, std float64) {
	var s, sq float64
	for _, t := range f.trees {
		v := t.Predict(x)
		s += v
		sq += v * v
	}
	n := float64(len(f.trees))
	mean = s / n
	variance := sq/n - mean*mean
	if variance > 0 {
		std = math.Sqrt(variance)
	}
	return mean, std
}
