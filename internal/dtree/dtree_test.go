package dtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, Options{}); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := Train([][]float64{{1}}, []float64{1, 2}, Options{}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Train([][]float64{{}}, []float64{1}, Options{}); err == nil {
		t.Error("zero features accepted")
	}
	if _, err := Train([][]float64{{1, 2}, {1}}, []float64{1, 2}, Options{}); err == nil {
		t.Error("ragged rows accepted")
	}
}

func TestPerfectFitOnTrainingData(t *testing.T) {
	// With single-sample leaves and distinct inputs, the paper's
	// configuration memorises the training set exactly.
	rng := rand.New(rand.NewSource(1))
	n := 200
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		y[i] = 3*x[i][0] - 2*x[i][1] + rng.NormFloat64()*0.1
	}
	tree, err := Train(x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if got := tree.Predict(x[i]); math.Abs(got-y[i]) > 1e-12 {
			t.Fatalf("training row %d: predict %g, want %g", i, got, y[i])
		}
	}
	if tree.MAE(x, y) > 1e-12 || tree.MSE(x, y) > 1e-12 {
		t.Error("nonzero training error with single-sample leaves")
	}
}

func TestConstantTarget(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{5, 5, 5, 5}
	tree, err := Train(x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumNodes() != 1 {
		t.Errorf("pure node split anyway: %d nodes", tree.NumNodes())
	}
	if got := tree.Predict([]float64{99}); got != 5 {
		t.Errorf("predict = %g", got)
	}
}

func TestDuplicateFeatureValues(t *testing.T) {
	// Identical inputs with different targets cannot be split: the leaf
	// predicts their mean.
	x := [][]float64{{1}, {1}, {1}, {1}}
	y := []float64{2, 4, 6, 8}
	tree, err := Train(x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumNodes() != 1 {
		t.Errorf("un-splittable data split: %d nodes", tree.NumNodes())
	}
	if got := tree.Predict([]float64{1}); got != 5 {
		t.Errorf("leaf mean = %g, want 5", got)
	}
}

func TestStepFunctionLearned(t *testing.T) {
	// A single-feature step function needs exactly one split.
	var x [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		v := float64(i)
		x = append(x, []float64{v})
		if v < 25 {
			y = append(y, 10)
		} else {
			y = append(y, 20)
		}
	}
	tree, err := Train(x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumNodes() != 3 {
		t.Errorf("step function used %d nodes, want 3", tree.NumNodes())
	}
	if tree.Predict([]float64{0}) != 10 || tree.Predict([]float64{40}) != 20 {
		t.Error("step thresholds wrong")
	}
	if tree.Depth() != 2 {
		t.Errorf("depth = %d, want 2", tree.Depth())
	}
}

func TestMaxDepthAndMinLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 300
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64() * 10}
		y[i] = x[i][0] * x[i][0]
	}
	shallow, err := Train(x, y, Options{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d := shallow.Depth(); d > 3 {
		t.Errorf("depth = %d beyond MaxDepth 3", d)
	}
	if shallow.NumLeaves() > 4 {
		t.Errorf("leaves = %d with depth 3", shallow.NumLeaves())
	}

	chunky, err := Train(x, y, Options{MinSamplesLeaf: 50})
	if err != nil {
		t.Fatal(err)
	}
	if chunky.NumLeaves() > n/50 {
		t.Errorf("leaves = %d with MinSamplesLeaf 50", chunky.NumLeaves())
	}

	deep, err := Train(x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if deep.MSE(x, y) >= shallow.MSE(x, y) {
		t.Error("unconstrained tree no better than depth-3 on training data")
	}
}

func TestGeneralisation(t *testing.T) {
	// The tree must interpolate a smooth function decently on held-out
	// points: within 10% mean relative error.
	rng := rand.New(rand.NewSource(3))
	f := func(a, b float64) float64 { return 100 + 50*a + 30*b*b + 10*a*b }
	var x [][]float64
	var y []float64
	for i := 0; i < 4000; i++ {
		a, b := rng.Float64(), rng.Float64()
		x = append(x, []float64{a, b})
		y = append(y, f(a, b))
	}
	tree, err := Train(x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var relErr float64
	const m = 500
	for i := 0; i < m; i++ {
		a, b := rng.Float64(), rng.Float64()
		want := f(a, b)
		got := tree.Predict([]float64{a, b})
		relErr += math.Abs(got-want) / want
	}
	if avg := relErr / m; avg > 0.10 {
		t.Errorf("held-out mean relative error %.1f%%, want <= 10%%", 100*avg)
	}
}

func TestPredictAll(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}}
	y := []float64{1, 2, 3}
	tree, err := Train(x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	preds := tree.PredictAll(x)
	for i := range preds {
		if preds[i] != y[i] {
			t.Fatalf("PredictAll = %v", preds)
		}
	}
	if tree.NumFeatures() != 1 {
		t.Error("NumFeatures wrong")
	}
}

func TestTreeInvariantsProperty(t *testing.T) {
	// Properties on random data: training error is zero for distinct
	// inputs; predictions are within the target range.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(100)
		x := make([][]float64, n)
		y := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range x {
			x[i] = []float64{float64(i), rng.Float64()}
			y[i] = rng.Float64() * 1000
			lo = min(lo, y[i])
			hi = max(hi, y[i])
		}
		tree, err := Train(x, y, Options{})
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(tree.Predict(x[i])-y[i]) > 1e-9 {
				return false
			}
		}
		for i := 0; i < 20; i++ {
			p := tree.Predict([]float64{rng.Float64() * float64(n), rng.Float64()})
			if p < lo-1e-9 || p > hi+1e-9 {
				return false // tree predictions are means of leaves
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPermutationImportanceIdentifiesSignal(t *testing.T) {
	// y depends strongly on feature 0, weakly on feature 1, not at all on
	// feature 2.
	rng := rand.New(rand.NewSource(4))
	n := 2000
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		y[i] = 1000 - 100*x[i][0] - 10*x[i][1]
	}
	tree, err := Train(x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"strong", "weak", "noise"}
	imps, err := PermutationImportance(tree, x, y, names, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(imps) != 3 {
		t.Fatalf("importances = %d", len(imps))
	}
	if math.Abs(imps[0].Pct) <= math.Abs(imps[1].Pct) {
		t.Errorf("strong (%.1f%%) not above weak (%.1f%%)", imps[0].Pct, imps[1].Pct)
	}
	if math.Abs(imps[1].Pct) <= math.Abs(imps[2].Pct) {
		t.Errorf("weak (%.1f%%) not above noise (%.1f%%)", imps[1].Pct, imps[2].Pct)
	}
	// Larger feature 0 lowers y ("fewer cycles"): positive sign.
	if imps[0].Pct <= 0 {
		t.Errorf("performance-positive feature has Pct %.1f%%", imps[0].Pct)
	}
	// Percentages sum to ~100 in magnitude.
	var sum float64
	for _, im := range imps {
		sum += math.Abs(im.Pct)
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("|Pct| sum = %g, want 100", sum)
	}
}

func TestPermutationImportanceSignNegative(t *testing.T) {
	// A parameter whose increase *raises* cycles must get a negative Pct.
	rng := rand.New(rand.NewSource(5))
	n := 1000
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64()}
		y[i] = 100 + 50*x[i][0]
	}
	tree, err := Train(x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	imps, err := PermutationImportance(tree, x, y, []string{"latency", "noise"}, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if imps[0].Pct >= 0 {
		t.Errorf("cycle-increasing feature has Pct %.1f%%, want negative", imps[0].Pct)
	}
}

func TestPermutationImportanceErrors(t *testing.T) {
	tree, err := Train([][]float64{{1}, {2}}, []float64{1, 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PermutationImportance(tree, nil, nil, []string{"a"}, 1, 1); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := PermutationImportance(tree, [][]float64{{1}}, []float64{1, 2}, []string{"a"}, 1, 1); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := PermutationImportance(tree, [][]float64{{1}}, []float64{1}, []string{"a", "b"}, 1, 1); err == nil {
		t.Error("wrong name count accepted")
	}
}

func TestTopN(t *testing.T) {
	imps := []Importance{
		{Feature: "a", Pct: 5},
		{Feature: "b", Pct: -50},
		{Feature: "c", Pct: 20},
		{Feature: "d", Pct: 1},
	}
	top := TopN(imps, 2)
	if len(top) != 2 || top[0].Feature != "b" || top[1].Feature != "c" {
		t.Errorf("TopN = %+v", top)
	}
	if len(TopN(imps, 100)) != 4 {
		t.Error("TopN overflow not clamped")
	}
	if got := TopN(imps, -1); len(got) != 0 {
		t.Errorf("TopN(-1) = %+v, want none", got)
	}
	// Original slice untouched.
	if imps[0].Feature != "a" {
		t.Error("TopN mutated input")
	}
}

func TestDeterministicTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 500
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64()}
		y[i] = rng.Float64()
	}
	t1, err := Train(x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Train(x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if t1.NumNodes() != t2.NumNodes() {
		t.Fatal("training not deterministic")
	}
	for i := 0; i < 100; i++ {
		p := []float64{rng.Float64(), rng.Float64()}
		if t1.Predict(p) != t2.Predict(p) {
			t.Fatal("predictions diverge between identical trainings")
		}
	}
}
