package dtree

import (
	"bytes"
	"testing"

	"armdse/internal/dataset"
)

// serializeWith trains on (x, y) with opt and returns the serialized model.
func serializeWith(t *testing.T, x [][]float64, y []float64, opt Options) []byte {
	t.Helper()
	tree, err := Train(x, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tree.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestParallelByteIdentity pins the determinism contract: the build result
// is invariant under the worker count, byte for byte — including under
// MaxFeatures, whose per-node feature subsets are keyed by tree path rather
// than by scheduling order.
func TestParallelByteIdentity(t *testing.T) {
	x, y := benchData(3000)
	cases := []struct {
		name string
		opt  Options
	}{
		{"exact", Options{}},
		{"maxfeat", Options{MaxFeatures: 10, Seed: 7}},
		{"maxfeat-minleaf", Options{MaxFeatures: 10, Seed: 7, MinSamplesLeaf: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt
			opt.Workers = 1
			ref := serializeWith(t, x, y, opt)
			for _, workers := range []int{0, 2, 8} {
				opt.Workers = workers
				got := serializeWith(t, x, y, opt)
				if !bytes.Equal(ref, got) {
					t.Errorf("workers=%d model differs from serial build", workers)
				}
			}
		})
	}
}

// TestForestWorkerInvariance pins that per-tree parallelism never changes a
// forest: each tree's bootstrap and training seed derive from the tree index,
// not from which worker drew it.
func TestForestWorkerInvariance(t *testing.T) {
	x, y := benchData(400)
	build := func(workers int) *Forest {
		f, err := TrainForest(x, y, ForestOptions{Trees: 9, Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	ref := build(1)
	for _, workers := range []int{2, 8} {
		got := build(workers)
		for i := range ref.trees {
			rb, err := ref.trees[i].Serialize()
			if err != nil {
				t.Fatal(err)
			}
			gb, err := got.trees[i].Serialize()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rb, gb) {
				t.Errorf("workers=%d: tree %d differs from serial forest", workers, i)
			}
		}
	}
}

// TestImportanceWorkerInvariance pins the deterministic reduction: each
// (feature, repeat) shuffle has its own substream and the totals are summed
// in feature order after the join, so the report is worker-count-invariant.
func TestImportanceWorkerInvariance(t *testing.T) {
	x, y := benchData(600)
	tree, err := Train(x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(x[0]))
	for i := range names {
		names[i] = "f"
	}
	run := func(workers int) []Importance {
		imps, err := PermutationImportanceOpt(tree, x, y, names, ImportanceOptions{
			Repeats: 3, Seed: 11, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return imps
	}
	ref := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		for i := range ref {
			if ref[i] != got[i] {
				t.Errorf("workers=%d: importance %d = %+v, serial %+v", workers, i, got[i], ref[i])
			}
		}
	}

	// The legacy entry point is the Opt form with default workers.
	legacy, err := PermutationImportance(tree, x, y, names, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if ref[i] != legacy[i] {
			t.Errorf("legacy importance %d = %+v, opt form %+v", i, legacy[i], ref[i])
		}
	}
}

// TestPredictBatchMatchesPredict pins that the batched predictors are pure
// fan-outs of the scalar ones at any worker count.
func TestPredictBatchMatchesPredict(t *testing.T) {
	x, y := benchData(500)
	tree, err := Train(x, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	forest, err := TrainForest(x, y, ForestOptions{Trees: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 3, 8} {
		tp := tree.PredictBatch(x, workers)
		fp := forest.PredictBatch(x, workers)
		for i, row := range x {
			if tp[i] != tree.Predict(row) {
				t.Fatalf("workers=%d: tree batch[%d] = %g, Predict %g", workers, i, tp[i], tree.Predict(row))
			}
			if fp[i] != forest.Predict(row) {
				t.Fatalf("workers=%d: forest batch[%d] = %g, Predict %g", workers, i, fp[i], forest.Predict(row))
			}
		}
	}
	if got := tree.PredictBatch(nil, 4); len(got) != 0 {
		t.Errorf("empty batch returned %d predictions", len(got))
	}
}

// loadGolden reads the checked-in design-space fixture (200 sampled
// configurations x 30 parameters, cycle targets for two mini-apps) collected
// by the repo's own pipeline.
func loadGolden(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := dataset.LoadFile("testdata/golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	return d
}
