package dtree

import (
	"bytes"
	"sync/atomic"
	"testing"

	"armdse/internal/stats"
)

// modelBytes returns a forest's canonical encoding — the byte-identity
// probe the refit determinism tests compare.
func modelBytes(t *testing.T, f *Forest) []byte {
	t.Helper()
	b, err := f.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRefitNilPrevMatchesTrainForest(t *testing.T) {
	x, y, _, _ := noisyData(3, 300)
	opt := ForestOptions{Trees: 12, Seed: 5}
	want, err := TrainForest(x, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, retrained, err := RefitForest(nil, x, y, RefitOptions{ForestOptions: opt, Gen: 4})
	if err != nil {
		t.Fatal(err)
	}
	if retrained != 12 {
		t.Errorf("full train retrained %d trees, want 12", retrained)
	}
	if !bytes.Equal(modelBytes(t, got), modelBytes(t, want)) {
		t.Error("RefitForest(nil, ...) differs from TrainForest")
	}
}

func TestRefitFullRefreshMatchesTrainForest(t *testing.T) {
	x0, y0, _, _ := noisyData(3, 200)
	x1, y1, _, _ := noisyData(4, 320)
	opt := ForestOptions{Trees: 10, Seed: 9}
	prev, err := TrainForest(x0, y0, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Refresh >= Trees retrains every tree with the same (Seed, tree)
	// substreams TrainForest uses, so the warm path degenerates exactly to
	// a cold train on the new data, whatever Gen says.
	got, retrained, err := RefitForest(prev, x1, y1, RefitOptions{ForestOptions: opt, Refresh: 10, Gen: 7})
	if err != nil {
		t.Fatal(err)
	}
	if retrained != 10 {
		t.Errorf("retrained %d trees, want 10", retrained)
	}
	want, err := TrainForest(x1, y1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(modelBytes(t, got), modelBytes(t, want)) {
		t.Error("full-refresh refit differs from cold TrainForest")
	}
}

// TestRefitWorkerInvariance pins the contract the adaptive proposer builds
// on: a sequence of warm refits over a growing training set serialises to
// byte-identical models at every worker count.
func TestRefitWorkerInvariance(t *testing.T) {
	xAll, yAll, _, _ := noisyData(6, 640)
	refitSeq := func(workers int) [][]byte {
		var out [][]byte
		var f *Forest
		var err error
		for gen, n := 0, 160; n <= len(xAll); gen, n = gen+1, n+160 {
			f, _, err = RefitForest(f, xAll[:n], yAll[:n], RefitOptions{
				ForestOptions: ForestOptions{Trees: 16, Seed: stats.SubSeed(11, gen), Workers: workers},
				Refresh:       4,
				Gen:           gen,
			})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, modelBytes(t, f))
		}
		return out
	}
	base := refitSeq(1)
	for _, workers := range []int{2, 8} {
		got := refitSeq(workers)
		for gen := range base {
			if !bytes.Equal(got[gen], base[gen]) {
				t.Errorf("gen %d: %d-worker refit differs from serial", gen, workers)
			}
		}
	}
}

// TestRefitRotationCoversEnsemble checks the subset rotation: each refit
// replaces exactly Refresh trees (the rest are retained by reference), and
// within ceil(Trees/Refresh) generations every tree has been retrained.
func TestRefitRotationCoversEnsemble(t *testing.T) {
	x, y, _, _ := noisyData(8, 300)
	const trees, refresh = 10, 3
	f, _, err := RefitForest(nil, x, y, RefitOptions{
		ForestOptions: ForestOptions{Trees: trees, Seed: 1},
		Refresh:       refresh,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for gen := 0; gen < 4; gen++ { // ceil(10/3) = 4 refits cover the ensemble
		next, retrained, err := RefitForest(f, x, y, RefitOptions{
			ForestOptions: ForestOptions{Trees: trees, Seed: stats.SubSeed(2, gen)},
			Refresh:       refresh,
			Gen:           gen,
		})
		if err != nil {
			t.Fatal(err)
		}
		if retrained != refresh {
			t.Fatalf("gen %d: retrained %d, want %d", gen, retrained, refresh)
		}
		replaced := 0
		for i := range next.trees {
			if next.trees[i] != f.trees[i] {
				replaced++
				seen[i] = true
			}
		}
		if replaced != refresh {
			t.Errorf("gen %d: %d trees replaced, want %d", gen, replaced, refresh)
		}
		f = next
	}
	if len(seen) != trees {
		t.Errorf("4 refits retrained %d distinct trees, want all %d", len(seen), trees)
	}
}

func TestRefitSizeMismatchRetrains(t *testing.T) {
	x, y, _, _ := noisyData(9, 200)
	prev, err := TrainForest(x, y, ForestOptions{Trees: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// A prev with the wrong ensemble size cannot be warm-started; the refit
	// falls back to a full train at the requested size.
	got, retrained, err := RefitForest(prev, x, y, RefitOptions{ForestOptions: ForestOptions{Trees: 12, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTrees() != 12 || retrained != 12 {
		t.Errorf("got %d trees (%d retrained), want full 12-tree retrain", got.NumTrees(), retrained)
	}
}

func TestRefitErrors(t *testing.T) {
	x, y, _, _ := noisyData(10, 100)
	prev, err := TrainForest(x, y, ForestOptions{Trees: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RefitForest(prev, nil, nil, RefitOptions{ForestOptions: ForestOptions{Trees: 4}}); err == nil {
		t.Error("empty refit set accepted")
	}
	if _, _, err := RefitForest(prev, [][]float64{{1}}, []float64{1, 2}, RefitOptions{ForestOptions: ForestOptions{Trees: 4}}); err == nil {
		t.Error("length mismatch accepted")
	}
}

// TestForEachForest checks the refit fan-out's schedule: every forest index
// runs exactly once, and each call's tree-worker share splits the budget
// over the forests running at once.
func TestForEachForest(t *testing.T) {
	for _, c := range []struct{ n, workers, treeWorkers int }{
		{0, 2, 0},
		{1, 2, 2}, // one forest keeps the whole budget for its trees
		{4, 2, 1}, // four forests on two workers: one tree worker each
		{3, 8, 3}, // ceil(8/3)
		{5, 1, 1},
	} {
		runs := make([]atomic.Int32, c.n)
		ForEachForest(c.n, c.workers, func(i, treeWorkers int) {
			runs[i].Add(1)
			if treeWorkers != c.treeWorkers {
				t.Errorf("n=%d workers=%d: forest %d got %d tree workers, want %d",
					c.n, c.workers, i, treeWorkers, c.treeWorkers)
			}
		})
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Errorf("n=%d workers=%d: forest %d ran %d times", c.n, c.workers, i, got)
			}
		}
	}
}
