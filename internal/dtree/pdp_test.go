package dtree

import (
	"math/rand"
	"testing"
)

func TestPartialDependence(t *testing.T) {
	// y = 10*x0: PDP over x0 recovers the linear trend regardless of x1.
	rng := rand.New(rand.NewSource(11))
	n := 500
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64() * 10, rng.Float64()}
		y[i] = 10 * x[i][0]
	}
	tree, err := Train(x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	values := []float64{1, 3, 5, 7, 9}
	pd, err := PartialDependence(tree, x, 0, values)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pd); i++ {
		if pd[i] <= pd[i-1] {
			t.Fatalf("PDP not increasing for increasing target: %v", pd)
		}
	}
	// Roughly linear: endpoint ratio near 9.
	if r := pd[4] / pd[0]; r < 5 || r > 13 {
		t.Errorf("PDP endpoint ratio %.1f, want ~9", r)
	}
	// The irrelevant feature is flat.
	pdNoise, err := PartialDependence(tree, x, 1, []float64{0.1, 0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	spread := pdNoise[0]
	for _, v := range pdNoise {
		if v > spread {
			spread = v
		}
	}
	lo := pdNoise[0]
	for _, v := range pdNoise {
		if v < lo {
			lo = v
		}
	}
	if (spread-lo)/pd[2] > 0.1 {
		t.Errorf("PDP of irrelevant feature varies %.1f%%", 100*(spread-lo)/pd[2])
	}

	// Errors.
	if _, err := PartialDependence(nil, x, 0, values); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := PartialDependence(tree, nil, 0, values); err == nil {
		t.Error("empty background accepted")
	}
	if _, err := PartialDependence(tree, x, 9, values); err == nil {
		t.Error("bad column accepted")
	}
	if _, err := PartialDependence(tree, x, 0, nil); err == nil {
		t.Error("no values accepted")
	}
}

func TestPartialDependenceWorksOnForest(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 300
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64() * 10}
		y[i] = x[i][0]
	}
	forest, err := TrainForest(x, y, ForestOptions{Trees: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pd, err := PartialDependence(forest, x, 0, []float64{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if pd[1] <= pd[0] {
		t.Error("forest PDP not increasing")
	}
}
