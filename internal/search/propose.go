package search

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"armdse/internal/dtree"
	"armdse/internal/orchestrate"
	"armdse/internal/params"
)

// The adaptive proposal loop. A Proposer plugs into the collection engine's
// BatchSource seam and decides, batch by batch, where to spend the
// remaining simulation budget. Model-based strategies (ucb, ei)
// keep one random forest per application warm across generations — each
// barrier retrains only a rotating subset of trees on the grown training
// set (dtree.RefitForest) — score a candidate pool with the ensemble mean
// and between-tree spread, and propose the best-scoring candidates; uniform
// is the control that reproduces the classic fixed sweep.
//
// The generation barrier is parallel: pool generation, constraint repair
// and acquisition scoring fan out in fixed-size chunks across a bounded
// worker pool (ProposeOptions.Workers), with every chunk drawing from its
// own splitmix64 substream keyed (seed, generation, chunk) and results
// merged in chunk order — the deterministic-reduction idiom of
// internal/dtree, except that the chunk size is a constant rather than a
// function of the worker count, because the chunks carry RNG draws.
//
// Everything is therefore deterministic given (seed, strategy, options):
// candidate pools draw from substreams chained via params.SubSeed, forests
// refit on chained per-(generation, app) seeds with generation-keyed tree
// rotation, and ties break on candidate index. Combined with the engine's
// barrier contract (the proposer only ever sees complete earlier batches),
// a run yields byte-identical datasets and serialized models at any
// Workers count and across interrupt/resume.

// Strategy names accepted by ProposeOptions.Strategy.
const (
	StrategyUniform = "uniform"
	StrategyUCB     = "ucb"
	StrategyEI      = "ei"
)

// strategyID keys the per-strategy RNG substream; part of the determinism
// contract, do not renumber.
var strategyID = map[string]int{
	StrategyUniform: 0,
	StrategyUCB:     1,
	StrategyEI:      2,
}

// Strategies lists the acquisition strategies in CLI presentation order.
func Strategies() []string {
	return []string{StrategyUniform, StrategyUCB, StrategyEI}
}

// ProposeOptions configure a Proposer.
type ProposeOptions struct {
	// Strategy selects the acquisition strategy; empty means uniform.
	Strategy string
	// Seed drives candidate sampling and forest training. A uniform
	// proposer with seed s proposes exactly params.ConfigAt(s, i) for
	// every index i — the classic fixed sweep.
	Seed int64
	// Budget is the total number of configurations to propose; required.
	Budget int
	// Batch is the proposal batch size — the engine barriers and the
	// forests refit between batches (default 64).
	Batch int
	// Pool is the candidate pool size scored per model-based batch
	// (default 8×Batch).
	Pool int
	// Kappa is UCB's exploration weight on the between-tree spread
	// (default 2.0).
	Kappa float64
	// Trees is the per-app forest size (default 20).
	Trees int
	// Workers bounds the acquisition concurrency — forest refits, pool
	// generation and candidate scoring; the proposals are identical at
	// every value.
	Workers int
	// Apps names the target applications whose cycles the forests model;
	// required for model-based strategies.
	Apps []string
}

func (o ProposeOptions) withDefaults() ProposeOptions {
	if o.Strategy == "" {
		o.Strategy = StrategyUniform
	}
	if o.Batch <= 0 {
		o.Batch = 64
	}
	if o.Pool <= 0 {
		o.Pool = 8 * o.Batch
	}
	if o.Kappa == 0 {
		o.Kappa = 2.0
	}
	if o.Trees <= 0 {
		o.Trees = 20
	}
	return o
}

// Proposer generates configuration batches for the engine's BatchSource
// seam. Create with NewProposer; a Proposer is single-use (the engine calls
// NextBatch serially for one run).
type Proposer struct {
	opt ProposeOptions

	gen      int // NextBatch call count
	proposed int // configurations proposed so far

	// forests are the warm per-app ensembles, index-parallel to opt.Apps;
	// modelGens counts model-guided batches — the refit rotation index.
	// Because NextBatch replays the same training sets in the same order
	// on resume, the warm state is a pure function of the prior rows.
	forests   []*dtree.Forest
	modelGens int

	stats orchestrate.BatchStats
}

// NewProposer validates the options and builds a proposer.
func NewProposer(opt ProposeOptions) (*Proposer, error) {
	opt = opt.withDefaults()
	if _, ok := strategyID[opt.Strategy]; !ok {
		return nil, fmt.Errorf("search: unknown strategy %q (want one of %v)", opt.Strategy, Strategies())
	}
	if opt.Budget <= 0 {
		return nil, fmt.Errorf("search: proposal budget %d <= 0", opt.Budget)
	}
	if opt.Strategy != StrategyUniform && len(opt.Apps) == 0 {
		return nil, fmt.Errorf("search: strategy %q needs the target application names", opt.Strategy)
	}
	return &Proposer{opt: opt}, nil
}

// Budget implements orchestrate.Budgeter.
func (p *Proposer) Budget() int { return p.opt.Budget }

// LastBatchStats implements orchestrate.BatchStatsSource: the cost of the
// most recent NextBatch call (zeros for uniform and warmup batches).
func (p *Proposer) LastBatchStats() orchestrate.BatchStats { return p.stats }

// Digest identifies the proposal stream for a journal's resume-identity
// stamp: every option that changes what gets proposed is in it, so
// resuming against a differently-configured proposer is rejected at the
// meta comparison. The trailing algorithm revision (v2: chunked pool
// substreams, warm-started refits) changed the proposal stream relative to
// v1 journals, which therefore must not resume either. The d0 and r0
// fields are the retired diversity weight and refit count, kept as
// literals so existing journals stay resumable.
func (p *Proposer) Digest() string {
	o := p.opt
	return fmt.Sprintf("%s/s%d/n%d/b%d/p%d/k%g/t%d/d0/r0/v2",
		o.Strategy, o.Seed, o.Budget, o.Batch, o.Pool, o.Kappa, o.Trees)
}

// minTrainRows is the fewest non-failed prior rows a model-based strategy
// will fit a forest on; below it the batch falls back to uniform sampling
// (this covers the first batch — the warmup — and failure-heavy starts).
const minTrainRows = 8

// NextBatch implements orchestrate.BatchSource. The prior rows are all
// completed earlier batches, sorted by index (the engine's contract);
// whether each batch is model-guided or uniform depends only on them and
// the options.
func (p *Proposer) NextBatch(prior []orchestrate.Row) ([]params.Config, bool) {
	p.stats = orchestrate.BatchStats{}
	n := p.opt.Batch
	if rem := p.opt.Budget - p.proposed; rem <= 0 {
		return nil, false
	} else if n > rem {
		n = rem
	}
	gen := p.gen
	p.gen++

	train := trainable(prior)
	var batch []params.Config
	if p.opt.Strategy == StrategyUniform || len(train) < minTrainRows {
		batch = p.uniformBatch(n)
	} else {
		batch = p.modelBatch(n, gen, train)
	}
	p.proposed += len(batch)
	return batch, true
}

// trainable filters prior rows to those a model can learn from.
func trainable(prior []orchestrate.Row) []orchestrate.Row {
	out := make([]orchestrate.Row, 0, len(prior))
	for _, r := range prior {
		if !r.Failed() && r.Targets != nil {
			out = append(out, r)
		}
	}
	return out
}

// uniformBatch continues the classic indexed stream: configuration i is
// params.ConfigAt(seed, i), so a uniform run (and every warmup/fallback
// batch) draws from exactly the fixed sweep's configurations.
func (p *Proposer) uniformBatch(n int) []params.Config {
	batch := make([]params.Config, n)
	for i := range batch {
		batch[i] = params.ConfigAt(p.opt.Seed, p.proposed+i)
	}
	return batch
}

// Parallel fan-out geometry and substream identifiers.
const (
	// scoreChunk is the fixed fan-out granularity of pool generation and
	// scoring: chunk c of a generation's pool draws from the substream
	// keyed (poolSeed, c) and writes its own index range, so the merged
	// pool is identical at any Workers value. The size is a constant —
	// never derived from the worker count like dtree.forEachChunk's, which
	// is fine for pure index-keyed writes but would move RNG draws between
	// streams as Workers changed.
	scoreChunk = 64
	// Substream indices under a generation's seed; part of the determinism
	// contract, do not renumber.
	streamPool    = 1
	streamExplore = 2
)

// forChunks runs fn over [0, n) in scoreChunk-sized pieces across a bounded
// worker pool (workers <= 0 selects GOMAXPROCS; 1 runs serially). Chunks
// are handed out dynamically, but every chunk's identity — and so any
// substream keyed by it — is its fixed index, and all writes are keyed by
// element index, so the result is schedule-independent.
func forChunks(n, workers int, fn func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	nchunks := (n + scoreChunk - 1) / scoreChunk
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nchunks {
		workers = nchunks
	}
	if workers <= 1 {
		for c := 0; c < nchunks; c++ {
			lo := c * scoreChunk
			hi := lo + scoreChunk
			if hi > n {
				hi = n
			}
			fn(c, lo, hi)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= nchunks {
					return
				}
				lo := c * scoreChunk
				hi := lo + scoreChunk
				if hi > n {
					hi = n
				}
				fn(c, lo, hi)
			}
		}()
	}
	wg.Wait()
}

// modelBatch refits the warm per-app forests on the prior rows, draws a
// uniform candidate pool from per-chunk (seed, generation, chunk)
// substreams, scores it across the worker pool, and assembles the batch.
func (p *Proposer) modelBatch(n, gen int, train []orchestrate.Row) []params.Config {
	o := p.opt
	genSeed := params.SubSeed(params.SubSeed(o.Seed, gen), strategyID[o.Strategy])

	x := make([][]float64, len(train))
	ys := make([][]float64, len(o.Apps))
	for ai := range o.Apps {
		ys[ai] = make([]float64, len(train))
	}
	for i, r := range train {
		x[i] = r.Features
		for ai, app := range o.Apps {
			v := r.Targets[app]
			if v < 1 {
				v = 1
			}
			ys[ai][i] = math.Log(v)
		}
	}
	t0 := time.Now()
	if p.forests == nil {
		p.forests = make([]*dtree.Forest, len(o.Apps))
	}
	for ai := range o.Apps {
		f, retrained, err := dtree.RefitForest(p.forests[ai], x, ys[ai], dtree.RefitOptions{
			ForestOptions: dtree.ForestOptions{
				Trees:   o.Trees,
				Seed:    params.SubSeed(genSeed, ai),
				Workers: o.Workers,
			},
			Gen: p.modelGens,
		})
		if err != nil {
			// Training can only fail on an empty set, which trainable()
			// already excluded — but degrade to uniform rather than panic.
			return p.uniformBatch(n)
		}
		p.forests[ai] = f
		p.stats.TreesRetrained += retrained
		p.stats.TreesRetained += o.Trees - retrained
	}
	p.modelGens++
	p.stats.RefitNanos = time.Since(t0).Nanoseconds()

	t1 := time.Now()
	poolSeed := params.SubSeed(genSeed, streamPool)
	cands := make([]params.Config, o.Pool)
	forChunks(o.Pool, o.Workers, func(c, lo, hi int) {
		rng := params.NewRand(params.SubSeed(poolSeed, c))
		for i := lo; i < hi; i++ {
			cands[i] = params.Sample(rng)
		}
	})

	bestY := make([]float64, len(o.Apps))
	for ai := range o.Apps {
		bestY[ai] = minOf(ys[ai])
	}
	scores := make([]float64, len(cands))
	forChunks(len(cands), o.Workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fv := cands[i].Features()
			var s float64
			for ai := range o.Apps {
				mean, std := p.forests[ai].PredictStats(fv)
				if o.Strategy == StrategyEI {
					s -= expectedImprovement(bestY[ai], mean, std)
				} else { // ucb
					s += mean - o.Kappa*std
				}
			}
			scores[i] = s
		}
	})
	p.stats.PoolScored = len(cands)

	batch := assemble(n, genSeed, cands, scores)
	p.stats.ScoreNanos = time.Since(t1).Nanoseconds()
	return batch
}

// assemble builds a batch from the scored pool. Taking the global top-n of
// one pool collapses the whole batch onto the model's current optimum
// basin, which is fine for pure optimization but starves the rest of the
// space — and the importance rankings learned from it — of samples. The
// exploit slice (1−1/exploreDiv of the batch) therefore uses tournament
// selection: each slot takes the best-scoring candidate of its own disjoint
// pool chunk, a best-of-k draw that favours the acquisition without piling
// onto one mode. The remaining 1/exploreDiv is epsilon-greedy mixing:
// uniform draws from the generation's dedicated explore substream, so
// determinism holds.
func assemble(n int, genSeed int64, cands []params.Config, scores []float64) []params.Config {
	nExploit := n - n/exploreDiv
	if nExploit > len(cands) {
		nExploit = len(cands)
	}
	batch := make([]params.Config, 0, n)
	if nExploit > 0 {
		chunk := len(cands) / nExploit
		for j := 0; j < nExploit; j++ {
			lo := j * chunk
			hi := lo + chunk
			if j == nExploit-1 {
				hi = len(cands) // the last slot absorbs the remainder
			}
			best := lo
			for i := lo + 1; i < hi; i++ {
				if scores[i] < scores[best] {
					best = i // strict < breaks ties on candidate index
				}
			}
			batch = append(batch, cands[best])
		}
	}
	rng := params.NewRand(params.SubSeed(genSeed, streamExplore))
	for len(batch) < n {
		batch = append(batch, params.Sample(rng))
	}
	return batch
}

// exploreDiv sets the uniform-exploration slice of each model-guided batch
// to 1/exploreDiv of the proposals.
const exploreDiv = 2

// expectedImprovement is the closed-form EI of a Gaussian posterior for
// minimisation: improvement over the incumbent best times its probability,
// plus the spread's exploration term.
func expectedImprovement(best, mean, std float64) float64 {
	imp := best - mean
	if std <= 0 {
		if imp > 0 {
			return imp
		}
		return 0
	}
	z := imp / std
	cdf := 0.5 * (1 + math.Erf(z/math.Sqrt2))
	pdf := math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
	return imp*cdf + std*pdf
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, v := range xs {
		if v < m {
			m = v
		}
	}
	return m
}
