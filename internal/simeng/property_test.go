package simeng

import (
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"armdse/internal/isa"
)

// mixedGroups is the general instruction mix of random programs.
var mixedGroups = []isa.Group{
	isa.IntALU, isa.IntMul, isa.IntDiv,
	isa.FPAdd, isa.FPMul, isa.FPFMA, isa.FPDiv,
	isa.SVEAdd, isa.SVEMul, isa.SVEFMA,
	isa.PredOp, isa.Load, isa.Store, isa.Branch,
}

// divideGroups is a divide-heavy mix: half its draws are unpipelined
// divides, which hold their ports and schedule the longest wake-ups.
var divideGroups = []isa.Group{
	isa.IntDiv, isa.FPDiv, isa.SVEDiv,
	isa.IntALU, isa.FPFMA, isa.Load,
}

// randomProgram builds a random but structurally valid instruction stream
// drawing its operations from groups: register indices within
// architectural bounds, memory accesses inside a 1 MiB window, branches
// resolved not-taken.
func randomProgram(rng *rand.Rand, n int, groups []isa.Group) []isa.Inst {
	insts := make([]isa.Inst, n)
	for i := range insts {
		g := groups[rng.Intn(len(groups))]
		in := &insts[i]
		in.Op = g
		in.PC = 0x1000 + uint64(i*isa.InstBytes)
		switch {
		case g == isa.Branch:
			in.AddSrc(isa.R(isa.Cond, 0))
			in.Branch = isa.BranchInfo{Taken: false}
		case g == isa.PredOp:
			in.AddDest(isa.R(isa.Pred, rng.Intn(16)))
			if rng.Intn(2) == 0 {
				in.AddDest(isa.R(isa.Cond, 0))
			}
			in.AddSrc(isa.R(isa.GP, rng.Intn(32)))
		case g.IsMem():
			width := []uint32{4, 8, 16, 32, 64}[rng.Intn(5)]
			addr := uint64(1<<20) + uint64(rng.Intn(1<<20-int(width)))
			in.Mem = isa.MemRef{Addr: addr, Bytes: width}
			if g == isa.Load {
				in.AddDest(isa.R(isa.FP, rng.Intn(32)))
			} else {
				in.AddSrc(isa.R(isa.FP, rng.Intn(32)))
			}
			in.AddSrc(isa.R(isa.GP, rng.Intn(32)))
			in.SVE = width >= 16
		case g.IsVector():
			in.SVE = true
			in.AddDest(isa.R(isa.FP, rng.Intn(32)))
			in.AddSrc(isa.R(isa.FP, rng.Intn(32)))
			in.AddSrc(isa.R(isa.FP, rng.Intn(32)))
		case g >= isa.FPAdd && g <= isa.FPDiv:
			in.AddDest(isa.R(isa.FP, rng.Intn(32)))
			in.AddSrc(isa.R(isa.FP, rng.Intn(32)))
		default:
			in.AddDest(isa.R(isa.GP, rng.Intn(32)))
			in.AddSrc(isa.R(isa.GP, rng.Intn(32)))
			if rng.Intn(3) == 0 {
				in.AddSrc(isa.R(isa.GP, rng.Intn(32)))
			}
		}
	}
	return insts
}

// randomConfig draws a valid core configuration. Widths and the ROB span
// their full Table II ranges; register files and queues stay small so
// rename and dispatch stalls stay frequent.
func randomConfig(rng *rand.Rand) Config {
	pow2 := func(lo, hi int) int {
		v := lo
		for v*2 <= hi && rng.Intn(2) == 0 {
			v *= 2
		}
		return v
	}
	cfg := Config{
		VectorLength:        pow2(128, 2048),
		FetchBlockSize:      pow2(4, 256),
		LoopBufferSize:      rng.Intn(64),
		GPRegisters:         40 + 8*rng.Intn(20),
		FPSVERegisters:      40 + 8*rng.Intn(20),
		PredRegisters:       24 + 8*rng.Intn(20),
		CondRegisters:       8 + 8*rng.Intn(20),
		CommitWidth:         1 + rng.Intn(64),
		FrontendWidth:       1 + rng.Intn(64),
		LSQCompletionWidth:  1 + rng.Intn(64),
		ROBSize:             8 + 4*rng.Intn(127),
		LoadQueueSize:       4 + 4*rng.Intn(16),
		StoreQueueSize:      4 + 4*rng.Intn(16),
		LoadBandwidth:       1024,
		StoreBandwidth:      1024,
		MemRequestsPerCycle: 1 + rng.Intn(8),
		MemLoadsPerCycle:    1 + rng.Intn(4),
		MemStoresPerCycle:   1 + rng.Intn(4),
	}
	return cfg
}

// TestRandomProgramsTerminateWithinBounds is the engine's central safety
// property: any structurally valid program on any valid configuration
// terminates without deadlock, retires everything, and lands between the
// commit-width lower bound and a generous serial upper bound.
func TestRandomProgramsTerminateWithinBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(300)
		insts := randomProgram(rng, n, mixedGroups)
		cfg := randomConfig(rng)
		if err := cfg.Validate(); err != nil {
			t.Logf("config invalid: %v", err)
			return false
		}
		st, err := Simulate(cfg, testMem(), isa.NewSliceStream(insts))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if st.Retired != int64(n) {
			t.Logf("seed %d: retired %d of %d", seed, st.Retired, n)
			return false
		}
		// Lower bound: commit width is a hard cap.
		if lb := int64(n / cfg.CommitWidth); st.Cycles < lb {
			t.Logf("seed %d: %d cycles below commit bound %d", seed, st.Cycles, lb)
			return false
		}
		// Upper bound: fully serial execution with every memory access a
		// RAM miss, plus constant slack.
		ub := int64(n)*(int64(isa.SVEDiv.Latency())+250) + 10_000
		if st.Cycles > ub {
			t.Logf("seed %d: %d cycles above serial bound %d", seed, st.Cycles, ub)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRandomProgramsDeterministic re-runs random programs and demands
// identical statistics.
func TestRandomProgramsDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(200)
		insts := randomProgram(rng, n, mixedGroups)
		cfg := randomConfig(rng)
		a, err := Simulate(cfg, testMem(), isa.NewSliceStream(insts))
		if err != nil {
			return false
		}
		b, err := Simulate(cfg, testMem(), isa.NewSliceStream(insts))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// FuzzCorePooledMatchesFresh checks Reset's contract on fuzzed programs and
// configurations: a core reused after another configuration's run that hit
// its cycle limit — aborted with wheel slots, masks, heaps and queues still
// occupied — reports exactly the Stats of a fresh core, and its stall
// breakdown sums to its cycles. The seed corpus in testdata holds inputs that
// catch a Reset that keeps the event wheel, the ready mask or the ready
// wheel's buckets.
func FuzzCorePooledMatchesFresh(f *testing.F) {
	f.Add(int64(1), int64(2), uint16(300), false)
	f.Add(int64(7), int64(11), uint16(1200), true)
	f.Add(int64(-3), int64(0), uint16(0), false)
	f.Fuzz(func(t *testing.T, seed, priorSeed int64, n uint16, divideHeavy bool) {
		groups := mixedGroups
		if divideHeavy {
			groups = divideGroups
		}
		rng := rand.New(rand.NewSource(seed))
		insts := randomProgram(rng, 1+int(n)%1500, groups)
		cfg := randomConfig(rng)

		// A divide-heavy prior run needs thousands of cycles; stopping it
		// within the first 120 leaves every scheduling structure busy.
		prng := rand.New(rand.NewSource(priorSeed))
		prior := randomProgram(prng, 1000, divideGroups)
		c, err := New(randomConfig(prng), testMem())
		if err != nil {
			t.Fatal(err)
		}
		limit := 20 + int64(uint64(priorSeed)%100)
		if _, err := c.RunLimit(isa.NewSliceStream(prior), limit); !errors.Is(err, ErrCycleLimit) {
			t.Fatalf("prior run with a %d-cycle limit: err = %v, want the cycle limit", limit, err)
		}
		if err := c.Reset(cfg, testMem()); err != nil {
			t.Fatal(err)
		}
		pooled, err := c.Run(isa.NewSliceStream(insts))
		if err != nil {
			t.Fatalf("pooled run: %v", err)
		}
		fresh, err := Simulate(cfg, testMem(), isa.NewSliceStream(insts))
		if err != nil {
			t.Fatalf("fresh run: %v", err)
		}
		if !reflect.DeepEqual(pooled, fresh) {
			p, _ := json.Marshal(pooled)
			f, _ := json.Marshal(fresh)
			t.Fatalf("pooled core differs from fresh\npooled %s\nfresh  %s", p, f)
		}
		if got := pooled.Stalls.Total(); got != pooled.Cycles {
			t.Fatalf("stall sum %d != cycles %d", got, pooled.Cycles)
		}
	})
}
