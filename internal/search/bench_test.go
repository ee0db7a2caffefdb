package search

import (
	"testing"
)

// BenchmarkProposeBatch measures the generation barrier itself: one
// NextBatch call in steady state — warm forest refit, candidate-pool
// generation and acquisition scoring — over a 600-row prior with the
// default 512-candidate pool. Workers follows GOMAXPROCS, so
// `go test -bench ProposeBatch -cpu 1,2` names each result by the core
// count it ran on.
func BenchmarkProposeBatch(b *testing.B) {
	prior := syntheticPrior(600)
	prop, err := NewProposer(ProposeOptions{
		Strategy: StrategyUCB,
		Seed:     5,
		Budget:   1 << 30,
		Batch:    64,
		Workers:  0, // GOMAXPROCS
		Apps:     []string{"a", "b"},
	})
	if err != nil {
		b.Fatal(err)
	}
	// One warmup call so every timed iteration is a steady-state refit of
	// already-warm forests.
	if _, ok := prop.NextBatch(prior); !ok {
		b.Fatal("proposer exhausted during warmup")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := prop.NextBatch(prior); !ok {
			b.Fatal("proposer exhausted")
		}
	}
}
