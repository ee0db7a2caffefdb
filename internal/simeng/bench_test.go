package simeng

import (
	"testing"

	"armdse/internal/isa"
	"armdse/internal/sstmem"
)

// BenchmarkCoreALUThroughput measures the engine on pure in-cache ALU work.
func BenchmarkCoreALUThroughput(b *testing.B) {
	insts := tightLoop(14, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	var retired int64
	for i := 0; i < b.N; i++ {
		h, err := sstmem.New(testMemCfg())
		if err != nil {
			b.Fatal(err)
		}
		c, err := New(bigCfg(), h)
		if err != nil {
			b.Fatal(err)
		}
		st, err := c.Run(isa.NewSliceStream(insts))
		if err != nil {
			b.Fatal(err)
		}
		retired += st.Retired
	}
	b.ReportMetric(float64(retired)/b.Elapsed().Seconds()/1e6, "MIPS")
}

// BenchmarkCorePooledALUThroughput is BenchmarkCoreALUThroughput on a pooled
// core and hierarchy, Reset in place between runs — the collection engine's
// steady state. allocs/op is the interesting number: it should be ~0 once
// the pooled structures reach their high-water marks, against the hundreds
// of allocations the fresh-construction benchmark pays per run.
func BenchmarkCorePooledALUThroughput(b *testing.B) {
	insts := tightLoop(14, 2000)
	h, err := sstmem.New(testMemCfg())
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(bigCfg(), h)
	if err != nil {
		b.Fatal(err)
	}
	stream := isa.SliceStream{Insts: insts}
	b.ReportAllocs()
	b.ResetTimer()
	var retired int64
	for i := 0; i < b.N; i++ {
		if err := h.Reset(testMemCfg()); err != nil {
			b.Fatal(err)
		}
		if err := c.Reset(bigCfg(), h); err != nil {
			b.Fatal(err)
		}
		stream.Reset()
		st, err := c.Run(&stream)
		if err != nil {
			b.Fatal(err)
		}
		retired += st.Retired
	}
	b.ReportMetric(float64(retired)/b.Elapsed().Seconds()/1e6, "MIPS")
}

// BenchmarkCoreMemoryBound measures the engine on a cold streaming pattern
// where the idle-cycle skipper matters.
func BenchmarkCoreMemoryBound(b *testing.B) {
	var insts []isa.Inst
	for i := 0; i < 2000; i++ {
		insts = append(insts, loadAt(1+i%16, uint64(1<<20)+uint64(i)*64, 64))
	}
	seqPCs(0x1000, insts)
	b.ReportAllocs()
	b.ResetTimer()
	var retired int64
	for i := 0; i < b.N; i++ {
		h, err := sstmem.New(testMemCfg())
		if err != nil {
			b.Fatal(err)
		}
		c, err := New(bigCfg(), h)
		if err != nil {
			b.Fatal(err)
		}
		st, err := c.Run(isa.NewSliceStream(insts))
		if err != nil {
			b.Fatal(err)
		}
		retired += st.Retired
	}
	b.ReportMetric(float64(retired)/b.Elapsed().Seconds()/1e6, "MIPS")
}
