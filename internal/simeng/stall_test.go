package simeng

import (
	"math/rand"
	"testing"
	"testing/quick"

	"armdse/internal/isa"
)

func TestStallClassNames(t *testing.T) {
	names := StallClassNames()
	if len(names) != int(NumStallClasses) {
		t.Fatalf("got %d names for %d classes", len(names), NumStallClasses)
	}
	seen := map[string]bool{}
	for i, n := range names {
		if n == "" {
			t.Fatalf("class %d has no name", i)
		}
		if seen[n] {
			t.Fatalf("duplicate class name %q", n)
		}
		seen[n] = true
		if StallClass(i).String() != n {
			t.Fatalf("class %d: String %q != name %q", i, StallClass(i).String(), n)
		}
	}
	if StallClass(NumStallClasses).String() != "invalid" {
		t.Fatalf("out-of-range class stringified as %q", StallClass(NumStallClasses).String())
	}
	if v, ok := (StallBreakdown{}).ByName("nonesuch"); ok || v != 0 {
		t.Fatalf("ByName accepted unknown class (%d, %v)", v, ok)
	}
}

// TestStallBreakdownSumsToCycles is the attribution invariant: on any
// successful run, over random configurations, programs and both backend
// kinds, every cycle is charged to exactly one stall class.
func TestStallBreakdownSumsToCycles(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(300)
		insts := randomProgram(rng, n, mixedGroups)
		cfg := randomConfig(rng)
		mems := map[string]MemoryBackend{"sstmem": testMem()}
		if fm, err := NewFlatMem(3, 64, 1+rng.Intn(4)); err == nil {
			mems["flat"] = fm
		} else {
			t.Logf("seed %d: flat backend: %v", seed, err)
			return false
		}
		for name, mem := range mems {
			st, err := Simulate(cfg, mem, isa.NewSliceStream(insts))
			if err != nil {
				t.Logf("seed %d (%s): %v", seed, name, err)
				return false
			}
			if got := st.Stalls.Total(); got != st.Cycles {
				t.Logf("seed %d (%s): stall sum %d != cycles %d (%+v)",
					seed, name, got, st.Cycles, st.Stalls)
				return false
			}
			if st.Stalls[StallBusy] == 0 && st.Retired > 0 {
				t.Logf("seed %d (%s): retired %d with zero busy cycles", seed, name, st.Retired)
				return false
			}
			for c, v := range st.Stalls {
				if v < 0 {
					t.Logf("seed %d (%s): class %v negative (%d)", seed, name, StallClass(c), v)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestStallAttributionPinpointsBottleneck drives constructed programs whose
// bottleneck is known and checks the dominant non-busy class matches.
func TestStallAttributionPinpointsBottleneck(t *testing.T) {
	t.Run("dependency chain is exec-bound", func(t *testing.T) {
		// A serial FMA chain short enough to fit in the reservation
		// station: nothing fills, the oldest instruction is always
		// executing or waiting on its operands.
		var insts []isa.Inst
		for i := 0; i < 40; i++ {
			var in isa.Inst
			in.Op = isa.FPFMA
			in.PC = 0x1000 + uint64(i*isa.InstBytes)
			in.AddDest(isa.R(isa.FP, 0))
			in.AddSrc(isa.R(isa.FP, 0))
			insts = append(insts, in)
		}
		st := mustSimulate(t, bigCfg(), testMem(), insts)
		assertDominant(t, st, StallExec)
	})
	t.Run("pointer-chase latency is mem-bound", func(t *testing.T) {
		// Serially dependent loads spread over a large footprint: the head
		// is a load waiting for data far more often than anything else.
		var insts []isa.Inst
		for i := 0; i < 300; i++ {
			var in isa.Inst
			in.Op = isa.Load
			in.PC = 0x1000 + uint64(i*isa.InstBytes)
			in.Mem = isa.MemRef{Addr: uint64(1<<20) + uint64(i)*4096, Bytes: 8}
			in.AddDest(isa.R(isa.GP, 1))
			in.AddSrc(isa.R(isa.GP, 1))
			insts = append(insts, in)
		}
		st := mustSimulate(t, bigCfg(), testMem(), insts)
		assertDominant(t, st, StallMemLatency)
	})
	t.Run("tiny ROB is rob-bound", func(t *testing.T) {
		// Long-latency divides behind a tiny window: dispatch spends most
		// cycles blocked on a full ROB.
		cfg := bigCfg()
		cfg.ROBSize = 4
		var insts []isa.Inst
		for i := 0; i < 300; i++ {
			var in isa.Inst
			in.Op = isa.FPDiv
			in.PC = 0x1000 + uint64(i*isa.InstBytes)
			in.AddDest(isa.R(isa.FP, i%8))
			in.AddSrc(isa.R(isa.FP, 8+i%8))
			insts = append(insts, in)
		}
		st := mustSimulate(t, cfg, testMem(), insts)
		assertDominant(t, st, StallROB)
	})
}

func mustSimulate(t *testing.T, cfg Config, mem MemoryBackend, insts []isa.Inst) Stats {
	t.Helper()
	st, err := Simulate(cfg, mem, isa.NewSliceStream(insts))
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if st.Stalls.Total() != st.Cycles {
		t.Fatalf("stall sum %d != cycles %d", st.Stalls.Total(), st.Cycles)
	}
	return st
}

// assertDominant checks want is the largest non-busy stall class.
func assertDominant(t *testing.T, st Stats, want StallClass) {
	t.Helper()
	best := StallClass(0)
	var bestV int64 = -1
	for c := StallClass(1); c < NumStallClasses; c++ {
		if st.Stalls[c] > bestV {
			best, bestV = c, st.Stalls[c]
		}
	}
	if best != want {
		t.Fatalf("dominant stall class %v (%d cycles), want %v; breakdown %+v",
			best, bestV, want, st.Stalls)
	}
}
