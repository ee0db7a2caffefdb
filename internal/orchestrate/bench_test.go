package orchestrate

import (
	"testing"

	"armdse/internal/params"
	"armdse/internal/simeng"
)

// benchRuns runs the tiny suite through fn once per iteration, reporting
// simulated configurations per second.
func benchRuns(b *testing.B, fn func(b *testing.B, cfg params.Config)) {
	cfg := params.ThunderX2()
	fn(b, cfg) // warm-up: program builds and pooled high-water marks
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(b, cfg)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "configs/s")
}

// BenchmarkRunFresh measures one (config, suite) evaluation with fresh
// construction per run: new hierarchy, new core, lazy stream — the
// pre-pooling cost model.
func BenchmarkRunFresh(b *testing.B) {
	suite := tinySuite()
	benchRuns(b, func(b *testing.B, cfg params.Config) {
		for _, w := range suite {
			prog, err := w.Program(cfg.Core.VectorLength)
			if err != nil {
				b.Fatal(err)
			}
			mem, err := NewBackend(BackendSST, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := simeng.Simulate(cfg.Core, mem, prog.Stream()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRunPooled measures the same evaluation through a pooled
// runContext replaying cached programs — the collection engine's steady state.
// allocs/op should be ~0 per run once warm.
func BenchmarkRunPooled(b *testing.B) {
	suite := tinySuite()
	cache := newProgramCache()
	rc := newRunContext()
	benchRuns(b, func(b *testing.B, cfg params.Config) {
		for _, w := range suite {
			prog, err := cache.get(w, cfg.Core.VectorLength, 0)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := rc.simulate(BackendSST, cfg, prog, simeng.DefaultMaxCycles); err != nil {
				b.Fatal(err)
			}
		}
	})
}
