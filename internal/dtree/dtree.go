// Package dtree implements the study's surrogate model: a CART decision-tree
// regressor matching the paper's scikit-learn configuration — mean-squared-
// error split criterion with best-split selection, no maximum depth, no
// maximum leaf count, and single-sample leaves — plus the permutation
// feature importance analysis used to rank parameters (§V-C, §VI-B).
//
// Every tree grows by the exact CART scan: each node sorts its samples per
// feature and splits at the midpoint of the best boundary, as scikit-learn
// does. Options.Workers builds independent subtrees concurrently and merges
// them in deterministic preorder, so the packed node array — and hence
// Serialize output — is byte-identical at every worker count.
package dtree

import (
	"fmt"
	"sync"

	"armdse/internal/stats"
)

// Options configure training. The zero value is the paper's configuration:
// unlimited depth, single-sample leaves, all features considered at every
// split, GOMAXPROCS build workers (the build result is
// worker-count-invariant, so parallelism is on by default).
type Options struct {
	// MinSamplesLeaf is the minimum samples in each child of a split;
	// values below 1 are treated as 1.
	MinSamplesLeaf int
	// MaxFeatures, when positive and below the feature count, restricts
	// each split to a random subset of that many features (random-forest
	// style). The subset is drawn from a per-node splitmix64 substream
	// keyed by the node's root-to-node path, so it is deterministic and
	// independent of Workers.
	MaxFeatures int
	// Seed drives the per-split feature subsampling when MaxFeatures is
	// set.
	Seed int64
	// Workers bounds the concurrent subtree builds; 0 selects GOMAXPROCS
	// and 1 builds serially. The trained tree is byte-identical at every
	// value — the build partitions samples deterministically and flattens
	// the node tree in preorder, so scheduling never leaks into the
	// model.
	Workers int
}

// node is one tree node. Leaves have feature == -1.
type node struct {
	threshold float64
	value     float64
	feature   int32
	left      int32
	right     int32
}

// Tree is a trained regression tree.
type Tree struct {
	nodes     []node
	nFeatures int
}

// bnode is the pointer form of a node used during the build. Subtrees are
// grown concurrently into disjoint bnode graphs and flattened into the
// packed preorder array once the build completes, which is what makes the
// parallel build's output independent of goroutine scheduling.
type bnode struct {
	threshold   float64
	value       float64
	feature     int32
	left, right *bnode
}

// splitResult accumulates the best split found so far at a node.
type splitResult struct {
	feature   int
	threshold float64
	gain      float64
}

// splitScratch holds one build task's reusable buffers; tasks borrow it from
// the trainer's pool for the duration of a node's split search.
type splitScratch struct {
	perm  []int      // partition buffer
	recs  []splitRec // (value, target) sort buffer
	feats []int      // feature-subsample buffer
}

// trainer carries shared, read-only state through the (possibly concurrent)
// recursive build.
type trainer struct {
	x   [][]float64
	y   []float64
	opt Options
	nf  int
	// allFeats is the shared 0..nf-1 list used when no subsampling is
	// configured; read-only across goroutines.
	allFeats []int
	// sem holds spawn tokens for Workers-1 extra goroutines; nil when the
	// build is serial.
	sem     chan struct{}
	scratch sync.Pool
}

// spawnMinSamples is the smallest node worth a goroutine of its own; smaller
// subtrees build inline to keep scheduling overhead off the hot path.
const spawnMinSamples = 256

// Train fits a regression tree to X (rows × features) and y.
func Train(x [][]float64, y []float64, opt Options) (*Tree, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("dtree: empty training set")
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("dtree: %d rows but %d targets", len(x), len(y))
	}
	nf := len(x[0])
	if nf == 0 {
		return nil, fmt.Errorf("dtree: zero features")
	}
	for i, row := range x {
		if len(row) != nf {
			return nil, fmt.Errorf("dtree: row %d has %d features, want %d", i, len(row), nf)
		}
	}
	if opt.MinSamplesLeaf < 1 {
		opt.MinSamplesLeaf = 1
	}
	tr := &trainer{x: x, y: y, opt: opt, nf: nf}
	tr.allFeats = make([]int, nf)
	for i := range tr.allFeats {
		tr.allFeats[i] = i
	}
	if w := clampWorkers(opt.Workers, len(x)); w > 1 {
		tr.sem = make(chan struct{}, w-1)
	}
	tr.scratch.New = func() any { return &splitScratch{} }
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	root := tr.build(idx, uint64(stats.SubSeed(opt.Seed, 0)))
	return flatten(root, nf), nil
}

// build grows the subtree over the samples in idx and returns its root.
// seed identifies the node's RNG substream (a pure function of the
// root-to-node path). idx is owned exclusively by this call: the partition
// step rewrites it in place and hands disjoint halves to the children, so
// concurrent subtree builds never share mutable state.
func (tr *trainer) build(idx []int, seed uint64) *bnode {
	n := len(idx)
	var sum, sumSq float64
	for _, i := range idx {
		sum += tr.y[i]
		sumSq += tr.y[i] * tr.y[i]
	}
	nd := &bnode{feature: -1, value: sum / float64(n)}

	if n < 2*tr.opt.MinSamplesLeaf {
		return nd
	}
	parentSSE := sumSq - sum*sum/float64(n)
	if parentSSE <= 1e-12 {
		return nd // already pure
	}

	best, nl := tr.findBestSplit(idx, seed, sum, sumSq, parentSSE)
	if best.feature < 0 || nl == 0 || nl == n {
		return nd // no split, or numeric degeneracy; keep the leaf
	}

	ch := tr.buildChildren(idx, nl, seed)
	nd.feature = int32(best.feature)
	nd.threshold = best.threshold
	nd.left, nd.right = ch.left, ch.right
	return nd
}

// findBestSplit scans the node's candidate splits and, when one exists,
// partitions idx in place around it (left block first, original order
// preserved within each side — the same stable partition at any worker
// count). It returns the winning split and the left-block length nl; a
// result with feature < 0 means the node stays a leaf.
func (tr *trainer) findBestSplit(idx []int, seed uint64, sum, sumSq, parentSSE float64) (splitResult, int) {
	sc := tr.getScratch(len(idx))
	defer tr.scratch.Put(sc)

	best := splitResult{feature: -1}
	for _, f := range tr.splitFeatures(sc, seed) {
		tr.findSplit(idx, f, sum, sumSq, parentSSE, sc, &best)
	}
	if best.feature < 0 {
		return best, 0
	}
	// Stable partition through the scratch buffer: left block, then right.
	perm := sc.perm[:len(idx)]
	nl := 0
	for _, i := range idx {
		if tr.x[i][best.feature] <= best.threshold {
			perm[nl] = i
			nl++
		}
	}
	nr := nl
	for _, i := range idx {
		if !(tr.x[i][best.feature] <= best.threshold) {
			perm[nr] = i
			nr++
		}
	}
	copy(idx, perm)
	return best, nl
}

// findSplit is the paper's exhaustive split search for one feature:
// sort the node's samples by the feature and scan every boundary between
// distinct consecutive values. The samples are gathered into contiguous
// (value, target) records first, so the sort and the scan never chase a row
// pointer; sortRecs orders them exactly as sort.Slice over the index
// permutation would (see splitsort.go), which keeps every tree identical.
func (tr *trainer) findSplit(idx []int, f int, sum, sumSq, parentSSE float64, sc *splitScratch, best *splitResult) {
	n := len(idx)
	recs := sc.recs[:n]
	for k, i := range idx {
		recs[k] = splitRec{v: tr.x[i][f], y: tr.y[i]}
	}
	sortRecs(recs)
	var lSum, lSq float64
	for k := 0; k < n-1; k++ {
		yi := recs[k].y
		lSum += yi
		lSq += yi * yi
		nl := k + 1
		nr := n - nl
		if nl < tr.opt.MinSamplesLeaf || nr < tr.opt.MinSamplesLeaf {
			continue
		}
		v0 := recs[k].v
		v1 := recs[k+1].v
		if v0 == v1 {
			continue
		}
		rSum := sum - lSum
		rSq := sumSq - lSq
		sse := (lSq - lSum*lSum/float64(nl)) + (rSq - rSum*rSum/float64(nr))
		gain := parentSSE - sse
		if gain > best.gain+1e-12 {
			best.gain = gain
			best.feature = f
			best.threshold = v0 + (v1-v0)/2
		}
	}
}

// childSeed derives a node's child substream from the parent's, keyed by
// side (0 = left, 1 = right), so every node's stream is a pure function of
// its root-to-node path — independent of build scheduling.
func childSeed(s uint64, side uint64) uint64 {
	v := s ^ (0x9e3779b97f4a7c15 * (side + 1))
	return stats.Splitmix64(&v)
}

// childPair carries the two built subtrees of a split node.
type childPair struct{ left, right *bnode }

// buildChildren grows both child subtrees of a split node, spawning the left
// one on its own goroutine when a worker token is free and both sides are
// big enough to amortise the handoff. Either way the children's content
// depends only on their sample blocks and path seeds, never on where they
// ran.
func (tr *trainer) buildChildren(idx []int, nl int, seed uint64) childPair {
	left, right := idx[:nl], idx[nl:]
	ls, rs := childSeed(seed, 0), childSeed(seed, 1)
	if tr.sem != nil && len(left) >= spawnMinSamples && len(right) >= spawnMinSamples {
		select {
		case tr.sem <- struct{}{}:
			var wg sync.WaitGroup
			var l *bnode
			wg.Add(1)
			go func() {
				defer wg.Done()
				l = tr.build(left, ls)
				<-tr.sem
			}()
			r := tr.build(right, rs)
			wg.Wait()
			return childPair{left: l, right: r}
		default:
		}
	}
	l := tr.build(left, ls)
	r := tr.build(right, rs)
	return childPair{left: l, right: r}
}

// getScratch borrows a scratch sized for an n-sample node.
func (tr *trainer) getScratch(n int) *splitScratch {
	sc := tr.scratch.Get().(*splitScratch)
	if cap(sc.perm) < n {
		sc.perm = make([]int, n)
	}
	if cap(sc.recs) < n {
		sc.recs = make([]splitRec, n)
	}
	if cap(sc.feats) < tr.nf {
		sc.feats = make([]int, tr.nf)
	}
	return sc
}

// splitFeatures returns the feature indices to scan at the current node:
// all of them, or a per-node random subset when MaxFeatures is configured.
func (tr *trainer) splitFeatures(sc *splitScratch, seed uint64) []int {
	if tr.opt.MaxFeatures <= 0 || tr.opt.MaxFeatures >= tr.nf {
		return tr.allFeats
	}
	feats := sc.feats[:tr.nf]
	copy(feats, tr.allFeats)
	rng := stats.NewRand(int64(seed))
	rng.Shuffle(len(feats), func(a, b int) {
		feats[a], feats[b] = feats[b], feats[a]
	})
	return feats[:tr.opt.MaxFeatures]
}

// flatten packs the built node graph into the Tree's array in preorder —
// the order the original serial trainer appended nodes in, which keeps the
// serialised form byte-identical to a serial build.
func flatten(root *bnode, nf int) *Tree {
	t := &Tree{nFeatures: nf, nodes: make([]node, 0, countNodes(root))}
	var walk func(nd *bnode) int32
	walk = func(nd *bnode) int32 {
		self := int32(len(t.nodes))
		t.nodes = append(t.nodes, node{feature: nd.feature, threshold: nd.threshold, value: nd.value})
		if nd.feature >= 0 {
			l := walk(nd.left)
			r := walk(nd.right)
			t.nodes[self].left = l
			t.nodes[self].right = r
		}
		return self
	}
	walk(root)
	return t
}

// countNodes sizes the packed array ahead of the flattening walk.
func countNodes(nd *bnode) int {
	if nd.feature < 0 {
		return 1
	}
	return 1 + countNodes(nd.left) + countNodes(nd.right)
}

// NumFeatures returns the model's input dimensionality.
func (t *Tree) NumFeatures() int { return t.nFeatures }

// NumNodes returns the total node count.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// NumLeaves returns the leaf count.
func (t *Tree) NumLeaves() int {
	n := 0
	for _, nd := range t.nodes {
		if nd.feature < 0 {
			n++
		}
	}
	return n
}

// Depth returns the maximum depth (a lone root has depth 1). Children always
// follow their parent in the packed array, so one reverse pass computes every
// subtree depth without recursion.
func (t *Tree) Depth() int {
	if len(t.nodes) == 0 {
		return 0
	}
	depth := make([]int, len(t.nodes))
	for i := len(t.nodes) - 1; i >= 0; i-- {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			depth[i] = 1
			continue
		}
		l, r := depth[nd.left], depth[nd.right]
		if l < r {
			l = r
		}
		depth[i] = l + 1
	}
	return depth[0]
}

// Predict evaluates the tree on one feature vector.
func (t *Tree) Predict(x []float64) float64 {
	i := int32(0)
	for {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return nd.value
		}
		if x[nd.feature] <= nd.threshold {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

// PredictAll evaluates the tree on every row.
func (t *Tree) PredictAll(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = t.Predict(row)
	}
	return out
}
