package sstmem_test

import (
	"testing"

	"armdse/internal/params"
	"armdse/internal/simeng"
	"armdse/internal/sstmem"
	"armdse/internal/workload"
)

// TestPooledHierarchyRetainsFootprint runs the test suite's STREAM at VL
// 512 on a 16 MiB, 16-way L2 with 16-B lines: 1 M ways, 32 MiB as a dense
// array, of which the run touches 37,500 lines. Reset for the next run, the
// pooled hierarchy must retain at most 4 MiB of cache storage.
func TestPooledHierarchyRetainsFootprint(t *testing.T) {
	cfg := params.ThunderX2()
	cfg.Core.VectorLength = 512
	cfg.Core.LoadBandwidth, cfg.Core.StoreBandwidth = 64, 64
	cfg.Mem.CacheLineWidth = 16
	cfg.Mem.L2Size = 16 << 20
	cfg.Mem.L2Assoc = 16
	var stream workload.Workload
	for _, w := range workload.TestSuite() {
		if w.Name() == workload.NameSTREAM {
			stream = w
		}
	}
	prog, err := stream.Program(cfg.Core.VectorLength)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sstmem.New(cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	core, err := simeng.New(cfg.Core, h)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Run(prog.Stream()); err != nil {
		t.Fatal(err)
	}
	if err := h.Reset(cfg.Mem); err != nil {
		t.Fatal(err)
	}
	got := sstmem.CacheBytes(h)
	t.Logf("cache storage after STREAM: %.2f MiB", float64(got)/(1<<20))
	if got > 4<<20 {
		t.Errorf("pooled hierarchy retains %d B of cache storage, want <= 4 MiB", got)
	}
}
