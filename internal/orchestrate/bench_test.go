package orchestrate

import (
	"testing"

	"armdse/internal/params"
	"armdse/internal/simeng"
	"armdse/internal/workload"
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

// BenchmarkRunPooled measures evaluations through a pooled runContext
// replaying cached programs — the collection engine's steady state.
//
// ThunderX2 runs the tiny suite on the baseline config; allocs/op should be
// ~0 per run once warm. Core runs the test suite on the first eight
// design-space points of seed 1 and reports the core's throughput: host ns
// per simulated cycle and simulated Minst/s, memory model included.
func BenchmarkRunPooled(b *testing.B) {
	b.Run("ThunderX2", func(b *testing.B) {
		suite := tinySuite()
		cache := newProgramCache()
		rc := newRunContext()
		benchRuns(b, func(b *testing.B, cfg params.Config) {
			for _, w := range suite {
				prog, err := cache.get(w, cfg.Core.VectorLength, 0)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := rc.simulate(cfg, prog, simeng.DefaultMaxCycles); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("Core", func(b *testing.B) {
		suite := workload.TestSuite()
		cache := newProgramCache()
		rc := newRunContext()
		var cfgs []params.Config
		for i := 0; i < 8; i++ {
			cfg := params.ConfigAt(1, i)
			cfgs = append(cfgs, cfg)
			for _, w := range suite {
				if _, err := cache.get(w, cfg.Core.VectorLength, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
		var cycles, retired int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, cfg := range cfgs {
				for _, w := range suite {
					prog, err := cache.get(w, cfg.Core.VectorLength, 0)
					if err != nil {
						b.Fatal(err)
					}
					st, err := rc.simulate(cfg, prog, simeng.DefaultMaxCycles)
					if err != nil {
						b.Fatal(err)
					}
					cycles += st.Cycles
					retired += st.Retired
				}
			}
		}
		ns := float64(b.Elapsed().Nanoseconds())
		b.ReportMetric(ns/float64(cycles), "ns/cycle")
		b.ReportMetric(float64(retired)/ns*1e3, "Minst/s")
	})
}
