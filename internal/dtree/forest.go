package dtree

import (
	"fmt"
	"math"

	"armdse/internal/stats"
)

// ForestOptions configure random-forest training.
type ForestOptions struct {
	// Trees is the ensemble size (default 30).
	Trees int
	// MaxFeatures restricts each split to a random feature subset;
	// 0 selects the regression default of nFeatures/3 (minimum 1).
	MaxFeatures int
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
// trains on a bootstrap resample with per-split feature subsampling and
// predictions average the ensemble.
type Forest struct {
	trees []*Tree
}

// TrainForest fits a random forest to X and y. Trees train concurrently
// under ForestOptions.Workers; because every tree's bootstrap and feature
// subsampling come from its own indexed substream, the result does not
// depend on scheduling.
func TrainForest(x [][]float64, y []float64, opt ForestOptions) (*Forest, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("dtree: empty training set")
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("dtree: %d rows but %d targets", len(x), len(y))
	}
	if opt.Trees <= 0 {
		opt.Trees = 30
	}
	nf := len(x[0])
	if opt.MaxFeatures <= 0 {
		opt.MaxFeatures = nf / 3
		if opt.MaxFeatures < 1 {
			opt.MaxFeatures = 1
		}
	}
	n := len(x)
	f := &Forest{trees: make([]*Tree, opt.Trees)}
	errs := make([]error, opt.Trees)
	forEachChunk(opt.Trees, opt.Workers, func(lo, hi int) {
		bx := make([][]float64, n)
		by := make([]float64, n)
		for t := lo; t < hi; t++ {
			rng := stats.NewRand(stats.SubSeed(opt.Seed, t))
			for i := 0; i < n; i++ {
				j := rng.Intn(n)
				bx[i] = x[j]
				by[i] = y[j]
			}
			f.trees[t], errs[t] = Train(bx, by, Options{
				MinSamplesLeaf: opt.MinSamplesLeaf,
				MaxFeatures:    opt.MaxFeatures,
				Seed:           rng.Int63(),
			})
			if errs[t] != nil {
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return f, nil
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

// MAE returns the forest's mean absolute error over (x, y).
func (f *Forest) MAE(x [][]float64, y []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for i, row := range x {
		s += math.Abs(f.Predict(row) - y[i])
	}
	return s / float64(len(x))
}
