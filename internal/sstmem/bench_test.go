package sstmem

import "testing"

func benchHierarchy(b *testing.B, fidelity Fidelity) {
	cfg := testConfig()
	cfg.Fidelity = fidelity
	h, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	now := int64(0)
	for i := 0; i < b.N; i++ {
		h.Access(now, uint64(i%4096)*64, i%7 == 0)
		now += 2
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Maccess/s")
}

func BenchmarkAccessBasic(b *testing.B) { benchHierarchy(b, Basic) }
func BenchmarkAccessHigh(b *testing.B)  { benchHierarchy(b, High) }

func BenchmarkCacheLookup(b *testing.B) {
	c := newCache(32<<10, 8, 64)
	for a := 0; a < 32<<10; a += 64 {
		c.fill(uint64(a), false, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.lookup(uint64(i%512)*64, false)
	}
}
