package search

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"testing"

	"armdse/internal/dataset"
	"armdse/internal/dtree"
	"armdse/internal/orchestrate"
	"armdse/internal/params"
	"armdse/internal/workload"
)

// tinySuite mirrors the orchestrate test suite: very small workloads so
// end-to-end adaptive runs stay fast.
func tinySuite() []workload.Workload {
	return []workload.Workload{
		workload.NewSTREAM(workload.STREAMInputs{ArraySize: 512, Times: 1}),
		workload.NewMiniBUDE(workload.MiniBUDEInputs{Atoms: 8, Poses: 16, Iterations: 1, Repeats: 1}),
	}
}

// adaptiveCSV runs an adaptive collection and returns the dataset as CSV.
func adaptiveCSV(t *testing.T, strategy string, workers int) []byte {
	t.Helper()
	suite := tinySuite()
	prop, err := NewProposer(ProposeOptions{
		Strategy: strategy,
		Seed:     11,
		Budget:   30,
		Batch:    10,
		trees:    5,
		Workers:  workers,
		Apps:     orchestrate.SuiteNames(suite),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := orchestrate.Collect(context.Background(), orchestrate.Options{
		Suite:   suite,
		Workers: workers,
		Batches: prop,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Data.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The seam's headline determinism guarantee: adaptive datasets are
// byte-identical at every worker count, for every strategy — the worker
// count feeds both the simulation pool and the parallel acquisition path
// (chunked pool scoring, warm forest refits, tournament assembly).
func TestAdaptiveWorkerCountInvariance(t *testing.T) {
	for _, strategy := range Strategies() {
		want := adaptiveCSV(t, strategy, 1)
		for _, workers := range []int{2, 8} {
			got := adaptiveCSV(t, strategy, workers)
			if !bytes.Equal(want, got) {
				t.Errorf("%s: Workers=%d dataset differs from Workers=1", strategy, workers)
			}
		}
		if len(want) == 0 {
			t.Errorf("%s: empty dataset", strategy)
		}
	}
}

// syntheticPrior builds deterministic completed rows whose targets are a
// smooth function of the features, so forests have real structure to learn.
func syntheticPrior(n int) []orchestrate.Row {
	rows := make([]orchestrate.Row, n)
	for i := range rows {
		cfg := params.ConfigAt(9, i)
		f := cfg.Features()
		var s float64
		for _, v := range f {
			s += v
		}
		rows[i] = orchestrate.Row{
			Index:    i,
			Config:   cfg,
			Features: f,
			Targets:  map[string]float64{"a": 1000 + s, "b": 2000 + 2*s},
		}
	}
	return rows
}

// The other half of the byte-identity contract: the warm per-app forests a
// proposer carries across generations serialise identically at any worker
// count, refit rotation included — a run's published surrogate model does
// not depend on how many cores scored it.
func TestWarmForestWorkerInvariance(t *testing.T) {
	run := func(workers int) ([][]float64, [][]byte) {
		prop, err := NewProposer(ProposeOptions{
			Strategy: StrategyUCB, Seed: 7, Budget: 48, Batch: 12,
			trees: 8, Workers: workers,
			Apps: []string{"a", "b"},
		})
		if err != nil {
			t.Fatal(err)
		}
		prior := syntheticPrior(40)
		var feats [][]float64
		for {
			batch, ok := prop.NextBatch(prior)
			if !ok {
				break
			}
			for _, cfg := range batch {
				feats = append(feats, cfg.Features())
			}
		}
		var models [][]byte
		for _, f := range prop.forests {
			var buf bytes.Buffer
			if err := dtree.WriteModel(f, &buf); err != nil {
				t.Fatal(err)
			}
			models = append(models, buf.Bytes())
		}
		return feats, models
	}
	wantFeats, wantModels := run(1)
	if len(wantModels) != 2 {
		t.Fatalf("got %d warm forests, want 2", len(wantModels))
	}
	for _, workers := range []int{2, 8} {
		gotFeats, gotModels := run(workers)
		if len(gotFeats) != len(wantFeats) {
			t.Fatalf("Workers=%d proposed %d configs, serial %d", workers, len(gotFeats), len(wantFeats))
		}
		for i := range wantFeats {
			for j := range wantFeats[i] {
				if gotFeats[i][j] != wantFeats[i][j] {
					t.Fatalf("Workers=%d: proposal %d feature %d differs from serial", workers, i, j)
				}
			}
		}
		for ai := range wantModels {
			if !bytes.Equal(gotModels[ai], wantModels[ai]) {
				t.Errorf("Workers=%d: serialized forest %d differs from serial", workers, ai)
			}
		}
	}
}

// proposalStream runs three generations of a proposer over a synthetic
// prior that grows by each batch, and returns its digest and a SHA-256 over
// the proposed feature vectors.
func proposalStream(t *testing.T, strategy string) (string, string) {
	t.Helper()
	prop, err := NewProposer(ProposeOptions{
		Strategy: strategy, Seed: 7, Budget: 96, Batch: 32, trees: 8,
		Apps: []string{"a", "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	prior := syntheticPrior(16)
	h := sha256.New()
	for gen := 0; gen < 3; gen++ {
		batch, ok := prop.NextBatch(prior)
		if !ok {
			t.Fatalf("%s: exhausted at gen %d", strategy, gen)
		}
		for _, cfg := range batch {
			f := cfg.Features()
			var s float64
			for _, v := range f {
				binary.Write(h, binary.LittleEndian, v)
				s += v
			}
			prior = append(prior, orchestrate.Row{
				Index: len(prior), Config: cfg, Features: f,
				Targets: map[string]float64{"a": 1000 + s, "b": 2000 + 2*s},
			})
		}
	}
	return prop.Digest(), hex.EncodeToString(h.Sum(nil))
}

// The surviving proposal streams are pinned: the digest a journal stamps
// and the first three batches of every strategy at a fixed seed. A change
// to either breaks resume of existing adaptive journals.
func TestProposalStreamGolden(t *testing.T) {
	golden := []struct{ strategy, digest, sha string }{
		{StrategyUniform, "uniform/s7/n96/b32/p256/k2/t8/d0/r0/v2", "52f185b5d818d77fe1f9cc3d42a572cbdd135d8a371534734a230ecc018e8bee"},
		{StrategyUCB, "ucb/s7/n96/b32/p256/k2/t8/d0/r0/v2", "46a9d0a5b865884a493a77b49601bbe8acce83d9ba184e45a84ed50a4ccce9c6"},
		{StrategyEI, "ei/s7/n96/b32/p256/k2/t8/d0/r0/v2", "cb4719c2e70d8b10432ac59ffa27cb76b6cacc58414e8ad3ec3201e37f815428"},
	}
	for _, g := range golden {
		digest, sha := proposalStream(t, g.strategy)
		if digest != g.digest {
			t.Errorf("%s: Digest() = %q, want %q", g.strategy, digest, g.digest)
		}
		if sha != g.sha {
			t.Errorf("%s: proposal stream sha256 = %s, want %s", g.strategy, sha, g.sha)
		}
	}
}

// A uniform proposer is the classic fixed sweep: same seed, same indices,
// same bytes.
func TestUniformProposerMatchesFixedSweep(t *testing.T) {
	suite := tinySuite()
	fixed, err := orchestrate.Collect(context.Background(), orchestrate.Options{
		Seed:    11,
		Samples: 30,
		Workers: 4,
		Suite:   suite,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := fixed.Data.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	got := adaptiveCSV(t, StrategyUniform, 4)
	if !bytes.Equal(want.Bytes(), got) {
		t.Error("uniform adaptive run differs from the classic fixed sweep")
	}
}

func TestProposerBudgetAndBatchSizes(t *testing.T) {
	prop, err := NewProposer(ProposeOptions{Strategy: StrategyUniform, Seed: 3, Budget: 25, Batch: 10})
	if err != nil {
		t.Fatal(err)
	}
	if prop.Budget() != 25 {
		t.Fatalf("Budget() = %d", prop.Budget())
	}
	var sizes []int
	for {
		batch, ok := prop.NextBatch(nil)
		if !ok {
			break
		}
		sizes = append(sizes, len(batch))
	}
	if len(sizes) != 3 || sizes[0] != 10 || sizes[1] != 10 || sizes[2] != 5 {
		t.Errorf("batch sizes = %v, want [10 10 5]", sizes)
	}
}

func TestProposerRejects(t *testing.T) {
	if _, err := NewProposer(ProposeOptions{Strategy: "anneal", Budget: 10}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := NewProposer(ProposeOptions{Strategy: StrategyUCB, Budget: 0, Apps: []string{"a"}}); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := NewProposer(ProposeOptions{Strategy: StrategyUCB, Budget: 10}); err == nil {
		t.Error("model strategy without apps accepted")
	}
}

// Journals and perfbench's adaptive-ucb dataset stamp these exact strings:
// the candidate pool (8× batch) and the ucb weight (2) print as p<n>/k2 for
// every strategy, so a journal written by any earlier build still resumes.
func TestProposerDigestLiterals(t *testing.T) {
	for _, c := range []struct {
		opt  ProposeOptions
		want string
	}{
		// perfbench adaptive-ucb
		{ProposeOptions{Strategy: StrategyUCB, Seed: 1, Budget: 1024, Batch: 64}, "ucb/s1/n1024/b64/p512/k2/t20/d0/r0/v2"},
		{ProposeOptions{Strategy: StrategyUCB, Seed: 3, Budget: 16, Batch: 8}, "ucb/s3/n16/b8/p64/k2/t20/d0/r0/v2"},
		{ProposeOptions{Strategy: StrategyEI, Seed: 3, Budget: 16, Batch: 8}, "ei/s3/n16/b8/p64/k2/t20/d0/r0/v2"},
		{ProposeOptions{Strategy: StrategyEI, Seed: 11, Budget: 300}, "ei/s11/n300/b64/p512/k2/t20/d0/r0/v2"},
	} {
		c.opt.Apps = []string{"a"}
		p, err := NewProposer(c.opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Digest(); got != c.want {
			t.Errorf("Digest() = %q, want %q", got, c.want)
		}
	}
}

func TestProposerDigestCoversOptions(t *testing.T) {
	base := ProposeOptions{Strategy: StrategyUCB, Seed: 1, Budget: 100, Batch: 10, Apps: []string{"a"}}
	d := func(o ProposeOptions) string {
		p, err := NewProposer(o)
		if err != nil {
			t.Fatal(err)
		}
		return p.Digest()
	}
	ref := d(base)
	// Journals stamp this exact string: a format change makes every
	// existing adaptive journal unresumable.
	if want := "ucb/s1/n100/b10/p80/k2/t20/d0/r0/v2"; ref != want {
		t.Errorf("digest = %q, want %q", ref, want)
	}
	for name, mut := range map[string]func(*ProposeOptions){
		"strategy": func(o *ProposeOptions) { o.Strategy = StrategyEI },
		"seed":     func(o *ProposeOptions) { o.Seed = 2 },
		"budget":   func(o *ProposeOptions) { o.Budget = 200 },
		"batch":    func(o *ProposeOptions) { o.Batch = 20 },
	} {
		o := base
		mut(&o)
		if d(o) == ref {
			t.Errorf("digest does not cover %s", name)
		}
	}
}

// Every proposed configuration must be simulatable: on-grid and satisfying
// the dependent constraints, for every model-based strategy.
func TestProposalsAlwaysValid(t *testing.T) {
	// Seed enough synthetic prior rows for the model path to engage.
	var prior []orchestrate.Row
	for i := 0; i < 20; i++ {
		cfg := params.ConfigAt(9, i)
		prior = append(prior, orchestrate.Row{
			Index:    i,
			Config:   cfg,
			Features: cfg.Features(),
			Targets:  map[string]float64{"a": float64(1000 + i*10), "b": float64(2000 + i*5)},
		})
	}
	for _, strategy := range []string{StrategyUCB, StrategyEI} {
		prop, err := NewProposer(ProposeOptions{
			Strategy: strategy, Seed: 5, Budget: 40, Batch: 20, trees: 3,
			Apps: []string{"a", "b"},
		})
		if err != nil {
			t.Fatal(err)
		}
		// First batch: warmup fallback; second: model-guided.
		for gen := 0; gen < 2; gen++ {
			batch, ok := prop.NextBatch(prior[:len(prior)*gen])
			if !ok {
				t.Fatalf("%s: exhausted at gen %d", strategy, gen)
			}
			for bi, cfg := range batch {
				if err := cfg.Validate(); err != nil {
					t.Fatalf("%s gen %d candidate %d invalid: %v", strategy, gen, bi, err)
				}
			}
		}
	}
}

func TestParetoFront(t *testing.T) {
	pts := []ParetoPoint{
		{Row: 0, Cycles: 10, Cost: 5},
		{Row: 1, Cycles: 8, Cost: 7},   // front
		{Row: 2, Cycles: 12, Cost: 4},  // front
		{Row: 3, Cycles: 10, Cost: 5},  // duplicate of 0; 0 wins by row
		{Row: 4, Cycles: 9, Cost: 9},   // dominated by 1
		{Row: 5, Cycles: 7, Cost: 20},  // front (fastest)
		{Row: 6, Cycles: 30, Cost: 30}, // dominated by everything
	}
	front := ParetoFront(pts)
	var rows []int
	for _, p := range front {
		rows = append(rows, p.Row)
	}
	want := []int{5, 1, 0, 2}
	if len(rows) != len(want) {
		t.Fatalf("front rows = %v, want %v", rows, want)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("front rows = %v, want %v", rows, want)
		}
	}
	// Cycles ascend and cost descends along the front.
	for i := 1; i < len(front); i++ {
		if front[i].Cycles < front[i-1].Cycles || front[i].Cost > front[i-1].Cost {
			t.Errorf("front not monotone at %d: %+v", i, front)
		}
	}
	if ParetoFront(nil) != nil {
		t.Error("empty input should yield nil front")
	}

	// ParetoFromDataset recomputes each row's cost from its features: five
	// ThunderX2 rows whose cost rises with the vector length alone.
	base := params.ThunderX2()
	d := dataset.New(params.FeatureNames(), []string{"app"})
	for i, vl := range []int{128, 256, 512, 1024, 2048} {
		cfg := base
		cfg.Core.VectorLength = vl
		cycles := []float64{
			900, // front: cheapest
			950, // dominated by row 0
			400, // front
			400, // dominated by row 2: as fast, costlier
			100, // front: fastest
		}[i]
		if err := d.Append(cfg.Features(), map[string]float64{"app": cycles}); err != nil {
			t.Fatal(err)
		}
	}
	front, err := ParetoFromDataset(d, "app")
	if err != nil {
		t.Fatal(err)
	}
	cost := func(vl int) float64 {
		cfg := base
		cfg.Core.VectorLength = vl
		return params.CostProxy(cfg)
	}
	wantFront := []ParetoPoint{
		{Row: 4, Cycles: 100, Cost: cost(2048)},
		{Row: 2, Cycles: 400, Cost: cost(512)},
		{Row: 0, Cycles: 900, Cost: cost(128)},
	}
	if !reflect.DeepEqual(front, wantFront) {
		t.Errorf("ParetoFromDataset = %+v, want %+v", front, wantFront)
	}
	if _, err := ParetoFromDataset(d, "nope"); err == nil {
		t.Error("ParetoFromDataset accepted an unknown app")
	}
}
