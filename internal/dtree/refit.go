package dtree

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Warm-started forest refits. An adaptive sweep retrains its surrogate at
// every generation barrier while all simulation workers idle, so the refit
// is pure barrier cost. Retraining the whole ensemble from scratch discards
// the previous generation's work even though most of the training set is
// unchanged; RefitForest instead retains the prior generation's trees by
// reference and retrains only a rotating, generation-keyed subset on the
// grown training set. Every tree still gets replaced within
// ceil(Trees/Refresh) generations, so the ensemble tracks the data, at a
// fraction of the per-barrier cost.
//
// Determinism contract: the retrained subset is a pure function of (Gen,
// Refresh, Trees), each retrained tree draws its bootstrap and split
// substreams from (Seed, tree index) exactly as TrainForest does, and
// retained trees are shared pointers — immutable once trained. The refitted
// forest (and its serialized form) is therefore byte-identical at every
// Workers value. Callers that want fresh randomness per generation pass a
// per-generation Seed (e.g. stats.SubSeed(base, gen)); Gen only selects
// which trees retrain.

// RefitOptions configure RefitForest. The embedded ForestOptions carry the
// ensemble geometry and training substreams, with the same defaults as
// TrainForest.
type RefitOptions struct {
	ForestOptions
	// Refresh is the number of trees retrained per refit; 0 selects
	// Trees/4 (minimum 1), and values >= Trees retrain the full ensemble —
	// which reproduces TrainForest exactly.
	Refresh int
	// Gen is the refit generation index: it keys the rotating retrain
	// subset so successive refits cycle through the whole ensemble.
	Gen int
}

// refreshCount resolves the per-refit retrain count against the ensemble
// size.
func refreshCount(refresh, trees int) int {
	if refresh <= 0 {
		refresh = trees / 4
	}
	if refresh < 1 {
		refresh = 1
	}
	if refresh > trees {
		refresh = trees
	}
	return refresh
}

// RefitForest warm-starts a forest from a previous generation's model: the
// rotating subset keyed by opt.Gen retrains on (x, y), every other tree is
// retained by reference. A nil prev — or one whose ensemble size does not
// match opt.Trees — gets a full train, which is what TrainForest runs.
// Returns the refitted forest and the number of trees retrained (== the
// ensemble size on a full train). prev is never mutated, so concurrent
// readers of the previous generation's forest are safe.
func RefitForest(prev *Forest, x [][]float64, y []float64, opt RefitOptions) (*Forest, int, error) {
	if len(x) == 0 {
		return nil, 0, fmt.Errorf("dtree: empty training set")
	}
	if len(x) != len(y) {
		return nil, 0, fmt.Errorf("dtree: %d rows but %d targets", len(x), len(y))
	}
	fo := opt.ForestOptions
	if fo.Trees <= 0 {
		fo.Trees = 30
	}
	f := &Forest{trees: make([]*Tree, fo.Trees)}
	start, count := 0, fo.Trees
	if prev != nil && prev.NumTrees() == fo.Trees {
		copy(f.trees, prev.trees)
		count = refreshCount(opt.Refresh, fo.Trees)
		gen := opt.Gen % fo.Trees
		if gen < 0 {
			gen += fo.Trees
		}
		start = (gen * count) % fo.Trees
	}
	if err := trainTrees(f, x, y, fo, start, count); err != nil {
		return nil, 0, err
	}
	return f, count, nil
}

// ForEachForest runs fn(i, treeWorkers) for every forest i in [0, n) on one
// bounded pool of workers goroutines (0 selects GOMAXPROCS) and returns when
// every call has finished. Up to min(n, workers) forests refit at once, and
// each call gets treeWorkers = ceil(workers / that) to pass on as its
// ForestOptions.Workers. An adaptive barrier refits one small forest per
// application; running those refits one after another, each splitting its
// few retrained trees into uneven per-worker chunks, leaves workers idle,
// while one fan-out over the forests keeps them busy. Forests train
// independently, so as long as fn writes its result at index i the models
// are identical at every workers value.
func ForEachForest(n, workers int, fn func(i, treeWorkers int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	outer := min(workers, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < outer; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i, (workers+outer-1)/outer)
			}
		}()
	}
	wg.Wait()
}
