package simeng_test

import (
	"testing"

	"armdse/internal/params"
	"armdse/internal/simeng"
	"armdse/internal/sstmem"
	"armdse/internal/workload"
)

func TestNewFlatMemValidation(t *testing.T) {
	for _, tc := range []struct {
		name                     string
		latency                  int64
		lineBytes, linesPerCycle int
	}{
		{"zero latency", 0, 64, 0},
		{"line not power of two", 3, 48, 0},
		{"line too small", 3, 2, 0},
		{"negative lines per cycle", 3, 64, -1},
	} {
		if _, err := simeng.NewFlatMem(tc.latency, tc.lineBytes, tc.linesPerCycle); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := simeng.NewFlatMem(1, 64, 0); err != nil {
		t.Errorf("minimal valid config rejected: %v", err)
	}
}

func TestFlatMemFixedLatency(t *testing.T) {
	m, err := simeng.NewFlatMem(5, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.LineBytes(); got != 64 {
		t.Fatalf("line bytes %d, want 64", got)
	}
	for i, now := range []int64{0, 0, 7, 100} {
		if done := m.Access(now, uint64(i)*4096, i%2 == 0); done != now+5 {
			t.Fatalf("access %d at cycle %d completed at %d, want %d", i, now, done, now+5)
		}
	}
	st := m.Stats()
	if st.Accesses != 4 || st.L1Hits != 4 {
		t.Fatalf("stats %+v, want 4 accesses / 4 hits", st)
	}
	if st.L1Misses != 0 || st.RAMReads != 0 {
		t.Fatalf("flat model recorded misses: %+v", st)
	}
}

func TestFlatMemThroughputCap(t *testing.T) {
	m, err := simeng.NewFlatMem(5, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Two lines fit in the cycle; the third and fourth queue one extra
	// cycle behind them.
	want := []int64{15, 15, 16, 16}
	for i, w := range want {
		if done := m.Access(10, uint64(i)*64, false); done != w {
			t.Fatalf("access %d completed at %d, want %d", i, done, w)
		}
	}
	// An access in a new cycle starts a new window, also after skipped
	// cycles.
	if done := m.Access(11, 0, false); done != 16 {
		t.Fatalf("next-cycle access completed at %d, want 16", done)
	}
	for i, w := range []int64{25, 25, 26} {
		if done := m.Access(20, uint64(i)*64, false); done != w {
			t.Fatalf("access %d after a skip completed at %d, want %d", i, done, w)
		}
	}
}

// TestFlatMemEndToEnd runs a real workload on a core over the flat backend
// and checks it behaves as an ideal memory: same work retired as the full
// hierarchy, in no more cycles, with the attribution invariant intact and
// no memory-hierarchy stall classes charged.
func TestFlatMemEndToEnd(t *testing.T) {
	cfg := params.ThunderX2()
	prog, err := workload.NewSTREAM(workload.STREAMInputs{ArraySize: 4096, Times: 1}).Program(cfg.Core.VectorLength)
	if err != nil {
		t.Fatal(err)
	}

	flat, err := simeng.NewFlatMem(cfg.Mem.L1LatencyCore(), cfg.Mem.CacheLineWidth, 0)
	if err != nil {
		t.Fatal(err)
	}
	fst, err := simeng.Simulate(cfg.Core, flat, prog.Stream())
	if err != nil {
		t.Fatal(err)
	}

	h, err := sstmem.New(cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	hst, err := simeng.Simulate(cfg.Core, h, prog.Stream())
	if err != nil {
		t.Fatal(err)
	}

	if fst.Retired != hst.Retired {
		t.Fatalf("flat retired %d, hierarchy retired %d", fst.Retired, hst.Retired)
	}
	if fst.Cycles > hst.Cycles {
		t.Fatalf("ideal memory slower than the hierarchy: %d > %d cycles", fst.Cycles, hst.Cycles)
	}
	if fst.Stalls.Total() != fst.Cycles {
		t.Fatalf("stall sum %d != cycles %d", fst.Stalls.Total(), fst.Cycles)
	}
	if fst.Mem.L1Misses != 0 {
		t.Fatalf("flat backend recorded %d L1 misses", fst.Mem.L1Misses)
	}
}
