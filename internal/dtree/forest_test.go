package dtree

import (
	"math"
	"math/rand"
	"testing"
)

// meanAbsErr is a model's mean absolute error over (x, y).
func meanAbsErr(m Predictor, x [][]float64, y []float64) float64 {
	var s float64
	for i, row := range x {
		s += math.Abs(m.Predict(row) - y[i])
	}
	return s / float64(len(x))
}

// noisyData builds a smooth function plus noise, split into train/test.
func noisyData(seed int64, n int) (xTr [][]float64, yTr []float64, xTe [][]float64, yTe []float64) {
	rng := rand.New(rand.NewSource(seed))
	f := func(a, b, c float64) float64 { return 100 + 40*a + 25*b*b - 15*a*c }
	for i := 0; i < n; i++ {
		a, b, c := rng.Float64(), rng.Float64(), rng.Float64()
		row := []float64{a, b, c}
		y := f(a, b, c) + rng.NormFloat64()*4
		if i%5 == 0 {
			xTe = append(xTe, row)
			yTe = append(yTe, f(a, b, c))
		} else {
			xTr = append(xTr, row)
			yTr = append(yTr, y)
		}
	}
	return
}

func TestForestErrors(t *testing.T) {
	if _, err := TrainForest(nil, nil, ForestOptions{}); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := TrainForest([][]float64{{1}}, []float64{1, 2}, ForestOptions{}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestForestDefaultsAndDeterminism(t *testing.T) {
	xTr, yTr, _, _ := noisyData(1, 200)
	f1, err := TrainForest(xTr, yTr, ForestOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if f1.NumTrees() != 30 {
		t.Errorf("default trees = %d, want 30", f1.NumTrees())
	}
	f2, err := TrainForest(xTr, yTr, ForestOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.3, 0.6, 0.9}
	if f1.Predict(probe) != f2.Predict(probe) {
		t.Error("same seed, different forests")
	}
	f3, err := TrainForest(xTr, yTr, ForestOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if f1.Predict(probe) == f3.Predict(probe) {
		t.Error("different seeds, identical forests (suspicious)")
	}
}

func TestForestBeatsSingleTreeOnNoisyData(t *testing.T) {
	// On noisy targets the variance-reduced ensemble must generalise
	// better than one fully-grown tree — the premise of the extforest
	// experiment.
	xTr, yTr, xTe, yTe := noisyData(2, 1500)
	tree, err := Train(xTr, yTr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	forest, err := TrainForest(xTr, yTr, ForestOptions{Trees: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	treeMAE := meanAbsErr(tree, xTe, yTe)
	forestMAE := meanAbsErr(forest, xTe, yTe)
	if forestMAE >= treeMAE {
		t.Errorf("forest MAE %.3f not below tree MAE %.3f on noisy data", forestMAE, treeMAE)
	}
}

func TestForestPredictAll(t *testing.T) {
	xTr, yTr, xTe, _ := noisyData(4, 300)
	forest, err := TrainForest(xTr, yTr, ForestOptions{Trees: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	preds := forest.PredictAll(xTe)
	if len(preds) != len(xTe) {
		t.Fatalf("preds = %d", len(preds))
	}
	for i, row := range xTe {
		if preds[i] != forest.Predict(row) {
			t.Fatalf("PredictAll[%d] = %g, Predict %g", i, preds[i], forest.Predict(row))
		}
	}
	if got := forest.PredictAll(nil); len(got) != 0 {
		t.Errorf("empty input returned %d predictions", len(got))
	}
}

func TestForestPredictStats(t *testing.T) {
	xTr, yTr, xTe, _ := noisyData(5, 400)
	forest, err := TrainForest(xTr, yTr, ForestOptions{Trees: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range xTe {
		mean, std := forest.PredictStats(probe)
		if mean != forest.Predict(probe) {
			t.Fatalf("PredictStats mean %g != Predict %g", mean, forest.Predict(probe))
		}
		if std < 0 || math.IsNaN(std) {
			t.Fatalf("std = %g", std)
		}
	}
	// Far outside the training box the trees were grown on different
	// bootstrap tails, so disagreement (std) should exceed the in-domain
	// average.
	var inStd float64
	for _, probe := range xTe {
		_, s := forest.PredictStats(probe)
		inStd += s
	}
	inStd /= float64(len(xTe))
	_, outStd := forest.PredictStats([]float64{25, -30, 40})
	if outStd < inStd {
		t.Logf("note: extrapolation std %.3f below in-domain mean %.3f", outStd, inStd)
	}
}

func TestFeatureSubsampling(t *testing.T) {
	// With MaxFeatures=1 each split sees a single random feature; the
	// tree still trains and predicts within the target range.
	xTr, yTr, xTe, _ := noisyData(5, 400)
	tree, err := Train(xTr, yTr, Options{MaxFeatures: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, y := range yTr {
		lo = min(lo, y)
		hi = max(hi, y)
	}
	for _, row := range xTe {
		p := tree.Predict(row)
		if p < lo-1e-9 || p > hi+1e-9 {
			t.Fatalf("prediction %g outside target range [%g, %g]", p, lo, hi)
		}
	}
	// Determinism under subsampling.
	t2, err := Train(xTr, yTr, Options{MaxFeatures: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumNodes() != t2.NumNodes() {
		t.Error("subsampled training not deterministic")
	}
}
