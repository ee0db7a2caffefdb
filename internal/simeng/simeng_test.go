package simeng

import (
	"reflect"
	"strings"
	"testing"

	"armdse/internal/isa"
	"armdse/internal/sstmem"
)

// testMemCfg returns a fast, deterministic memory configuration.
func testMemCfg() sstmem.Config {
	return sstmem.Config{
		CacheLineWidth: 64,
		L1DSize:        32 << 10, L1DAssoc: 8, L1DLatency: 2, L1DClockGHz: 2.5, L1DMSHRs: 8,
		L2Size: 512 << 10, L2Assoc: 8, L2Latency: 10, L2ClockGHz: 2.5,
		RAMLatencyNs: 80, RAMBandwidthGBs: 50,
		CoreClockGHz: 2.5,
	}
}

// testMem returns a fresh SST-like hierarchy built from testMemCfg; each
// Simulate call needs its own backend.
func testMem() MemoryBackend {
	h, err := sstmem.New(testMemCfg())
	if err != nil {
		panic(err)
	}
	return h
}

// bigCfg returns a generously sized core so micro-tests can isolate one
// resource at a time.
func bigCfg() Config {
	return Config{
		VectorLength:        128,
		FetchBlockSize:      64,
		LoopBufferSize:      64,
		GPRegisters:         512,
		FPSVERegisters:      512,
		PredRegisters:       256,
		CondRegisters:       256,
		CommitWidth:         8,
		FrontendWidth:       8,
		LSQCompletionWidth:  4,
		ROBSize:             256,
		LoadQueueSize:       64,
		StoreQueueSize:      64,
		LoadBandwidth:       64,
		StoreBandwidth:      64,
		MemRequestsPerCycle: 8,
		MemLoadsPerCycle:    4,
		MemStoresPerCycle:   4,
	}
}

// simulate runs insts on cfg with the test memory.
func simulate(t *testing.T, cfg Config, insts []isa.Inst) Stats {
	t.Helper()
	st, err := Simulate(cfg, testMem(), isa.NewSliceStream(insts))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// alu builds an IntALU instruction dst <- src at the next PC.
func alu(pc uint64, dst, src int) isa.Inst {
	var in isa.Inst
	in.Op = isa.IntALU
	in.PC = pc
	in.AddDest(isa.R(isa.GP, dst))
	in.AddSrc(isa.R(isa.GP, src))
	return in
}

// seqPCs assigns consecutive PCs starting at base.
func seqPCs(base uint64, insts []isa.Inst) []isa.Inst {
	for i := range insts {
		insts[i].PC = base + uint64(i*isa.InstBytes)
	}
	return insts
}

func TestConfigValidate(t *testing.T) {
	if err := bigCfg().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := ThunderX2().Validate(); err != nil {
		t.Fatalf("ThunderX2 baseline rejected: %v", err)
	}
	broken := []func(*Config){
		func(c *Config) { c.VectorLength = 96 },
		func(c *Config) { c.VectorLength = 4096 },
		func(c *Config) { c.FetchBlockSize = 3 },
		func(c *Config) { c.LoopBufferSize = -1 },
		func(c *Config) { c.GPRegisters = 32 },
		func(c *Config) { c.FPSVERegisters = 30 },
		func(c *Config) { c.PredRegisters = 16 },
		func(c *Config) { c.CondRegisters = 1 },
		func(c *Config) { c.CommitWidth = 0 },
		func(c *Config) { c.FrontendWidth = 0 },
		func(c *Config) { c.LSQCompletionWidth = 0 },
		func(c *Config) { c.ROBSize = 2 },
		func(c *Config) { c.LoadQueueSize = 0 },
		func(c *Config) { c.StoreQueueSize = 0 },
		func(c *Config) { c.LoadBandwidth = 8 }, // below one 128-bit vector
		func(c *Config) { c.StoreBandwidth = 8 },
		func(c *Config) { c.MemRequestsPerCycle = 0 },
		func(c *Config) { c.MemLoadsPerCycle = 0 },
		func(c *Config) { c.MemStoresPerCycle = 0 },
	}
	for i, mutate := range broken {
		c := bigCfg()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestEmptyStream(t *testing.T) {
	st := simulate(t, bigCfg(), nil)
	if st.Retired != 0 {
		t.Errorf("retired %d on empty stream", st.Retired)
	}
}

func TestRetiresEverything(t *testing.T) {
	insts := make([]isa.Inst, 100)
	for i := range insts {
		insts[i] = alu(0, 1+i%8, 9+i%8)
	}
	seqPCs(0x1000, insts)
	st := simulate(t, bigCfg(), insts)
	if st.Retired != 100 {
		t.Errorf("retired = %d, want 100", st.Retired)
	}
	if st.Fetched != 100 {
		t.Errorf("fetched = %d, want 100", st.Fetched)
	}
	if st.Cycles <= 0 {
		t.Errorf("cycles = %d", st.Cycles)
	}
}

func TestDependencyChainSerialises(t *testing.T) {
	const n = 200
	chain := make([]isa.Inst, n)
	for i := range chain {
		chain[i] = alu(0, 1, 1) // X1 <- X1: serial
	}
	seqPCs(0x1000, chain)
	indep := make([]isa.Inst, n)
	for i := range indep {
		indep[i] = alu(0, 1+i%16, 20) // all read X20: parallel
	}
	seqPCs(0x1000, indep)

	cChain := simulate(t, bigCfg(), chain).Cycles
	cIndep := simulate(t, bigCfg(), indep).Cycles
	if cChain < n {
		t.Errorf("serial chain of %d finished in %d cycles", n, cChain)
	}
	if cIndep*2 >= cChain {
		t.Errorf("independent (%d) not much faster than chained (%d)", cIndep, cChain)
	}
}

func TestMixedPortThroughput(t *testing.T) {
	// Independent IntALU work is bounded by the three mixed ports: at
	// least n/3 cycles regardless of widths.
	const n = 300
	insts := make([]isa.Inst, n)
	for i := range insts {
		insts[i] = alu(0, 1+i%16, 20)
	}
	seqPCs(0x1000, insts)
	cfg := bigCfg()
	cfg.FrontendWidth = 16
	cfg.CommitWidth = 16
	st := simulate(t, cfg, insts)
	if st.Cycles < n/3 {
		t.Errorf("cycles %d below port bound %d", st.Cycles, n/3)
	}
	if st.Cycles > n {
		t.Errorf("cycles %d above serial bound for independent work", st.Cycles)
	}
}

func TestUnpipelinedDivideOccupancy(t *testing.T) {
	const n = 30
	divs := make([]isa.Inst, n)
	for i := range divs {
		var in isa.Inst
		in.Op = isa.FPDiv
		in.AddDest(isa.R(isa.FP, 1+i%8))
		in.AddSrc(isa.R(isa.FP, 20))
		divs[i] = in
	}
	seqPCs(0x1000, divs)
	st := simulate(t, bigCfg(), divs)
	// Three mixed ports, 16-cycle unpipelined divides: >= n/3*16 cycles.
	if min := int64(n / 3 * isa.FPDiv.Latency()); st.Cycles < min {
		t.Errorf("divides finished in %d cycles, want >= %d", st.Cycles, min)
	}

	adds := make([]isa.Inst, n)
	for i := range adds {
		var in isa.Inst
		in.Op = isa.FPAdd
		in.AddDest(isa.R(isa.FP, 1+i%8))
		in.AddSrc(isa.R(isa.FP, 20))
		adds[i] = in
	}
	seqPCs(0x1000, adds)
	stAdd := simulate(t, bigCfg(), adds)
	if stAdd.Cycles >= st.Cycles {
		t.Errorf("pipelined adds (%d) not faster than divides (%d)", stAdd.Cycles, st.Cycles)
	}
}

func TestCommitWidthBounds(t *testing.T) {
	const n = 400
	insts := make([]isa.Inst, n)
	for i := range insts {
		insts[i] = alu(0, 1+i%16, 20)
	}
	seqPCs(0x1000, insts)
	cfg := bigCfg()
	cfg.CommitWidth = 1
	st := simulate(t, cfg, insts)
	if st.Cycles < n {
		t.Errorf("commit width 1: %d cycles for %d instructions", st.Cycles, n)
	}
}

func TestFrontendWidthBounds(t *testing.T) {
	const n = 400
	insts := make([]isa.Inst, n)
	for i := range insts {
		insts[i] = alu(0, 1+i%16, 20)
	}
	seqPCs(0x1000, insts)
	cfg := bigCfg()
	cfg.FrontendWidth = 1
	st := simulate(t, cfg, insts)
	if st.Cycles < n {
		t.Errorf("frontend width 1: %d cycles for %d instructions", st.Cycles, n)
	}
}

func TestFetchBlockSizeBounds(t *testing.T) {
	const n = 400
	insts := make([]isa.Inst, n)
	for i := range insts {
		insts[i] = alu(0, 1+i%16, 20)
	}
	seqPCs(0x1000, insts)
	narrow := bigCfg()
	narrow.FetchBlockSize = 4 // one instruction per aligned block
	stNarrow := simulate(t, narrow, insts)
	if stNarrow.Cycles < n {
		t.Errorf("4-byte fetch blocks: %d cycles for %d instructions", stNarrow.Cycles, n)
	}
	wide := bigCfg()
	wide.FetchBlockSize = 2048
	stWide := simulate(t, wide, insts)
	if stWide.Cycles*2 >= stNarrow.Cycles {
		t.Errorf("wide blocks (%d) not much faster than narrow (%d)", stWide.Cycles, stNarrow.Cycles)
	}
}

// tightLoop builds a k-instruction loop body (ALU ops + loop-back branch)
// iterated iters times.
func tightLoop(bodyALUs int, iters int) []isa.Inst {
	var insts []isa.Inst
	base := uint64(0x1000)
	for it := 0; it < iters; it++ {
		for j := 0; j < bodyALUs; j++ {
			in := alu(base+uint64(j*4), 1+j%8, 20)
			insts = append(insts, in)
		}
		var br isa.Inst
		br.Op = isa.Branch
		br.PC = base + uint64(bodyALUs*4)
		br.AddSrc(isa.R(isa.Cond, 0))
		br.Branch = isa.BranchInfo{Taken: it < iters-1, Target: base, LoopBack: true}
		insts = append(insts, br)
	}
	return insts
}

func TestLoopBufferSupply(t *testing.T) {
	// A 15-instruction loop with 4-byte fetch blocks is fetch-starved
	// unless the loop buffer captures it.
	loop := tightLoop(14, 50)
	withLB := bigCfg()
	withLB.FetchBlockSize = 4
	withLB.LoopBufferSize = 64
	stLB := simulate(t, withLB, loop)
	if stLB.LoopBufferFetched == 0 {
		t.Fatal("loop buffer never engaged")
	}

	noLB := withLB
	noLB.LoopBufferSize = 1
	stNo := simulate(t, noLB, loop)
	if stNo.LoopBufferFetched != 0 {
		t.Error("undersized loop buffer engaged")
	}
	if stLB.Cycles*2 >= stNo.Cycles {
		t.Errorf("loop buffer (%d cycles) not much faster than without (%d)", stLB.Cycles, stNo.Cycles)
	}
}

func TestLoopBufferDisengagesOnExit(t *testing.T) {
	// Two different loops back to back: the buffer must re-lock onto the
	// second loop and still supply it.
	first := tightLoop(6, 20)
	// Second loop at different PCs.
	second := tightLoop(6, 20)
	for i := range second {
		second[i].PC += 0x200
		if second[i].Op == isa.Branch {
			second[i].Branch.Target += 0x200
		}
	}
	all := append(first, second...)
	cfg := bigCfg()
	cfg.FetchBlockSize = 8
	st := simulate(t, cfg, all)
	if st.Retired != int64(len(all)) {
		t.Fatalf("retired %d of %d", st.Retired, len(all))
	}
	if st.LoopBufferFetched == 0 {
		t.Error("loop buffer never engaged across two loops")
	}
}

func TestRenameStallsOnRegisterPressure(t *testing.T) {
	// Long-latency FP chain consumers: with barely more physical FP regs
	// than architectural, in-flight FP producers are capped at 2.
	const n = 120
	insts := make([]isa.Inst, n)
	for i := range insts {
		var in isa.Inst
		in.Op = isa.FPMul
		in.AddDest(isa.R(isa.FP, 1+i%8))
		in.AddSrc(isa.R(isa.FP, 20))
		insts[i] = in
	}
	seqPCs(0x1000, insts)

	tight := bigCfg()
	tight.FPSVERegisters = 34 // two free
	stTight := simulate(t, tight, insts)
	if stTight.RenameStalls[isa.FP] == 0 {
		t.Fatal("no FP rename stalls with 2 free registers")
	}
	loose := bigCfg()
	stLoose := simulate(t, loose, insts)
	if stLoose.Cycles*2 >= stTight.Cycles {
		t.Errorf("ample registers (%d) not much faster than starved (%d)", stLoose.Cycles, stTight.Cycles)
	}
}

// loadAt builds a load of width bytes at address addr into FP reg dst.
func loadAt(dst int, addr uint64, bytes uint32) isa.Inst {
	var in isa.Inst
	in.Op = isa.Load
	in.AddDest(isa.R(isa.FP, dst))
	in.AddSrc(isa.R(isa.GP, 1))
	in.Mem = isa.MemRef{Addr: addr, Bytes: bytes}
	return in
}

// storeAt builds a store of width bytes at addr from FP reg src.
func storeAt(src int, addr uint64, bytes uint32) isa.Inst {
	var in isa.Inst
	in.Op = isa.Store
	in.AddSrc(isa.R(isa.FP, src))
	in.AddSrc(isa.R(isa.GP, 1))
	in.Mem = isa.MemRef{Addr: addr, Bytes: bytes}
	return in
}

func TestLoadLatencyVisible(t *testing.T) {
	// A load followed by a dependent op chain: first run is a cold miss,
	// so cycles must include the RAM latency (200 core cycles).
	insts := []isa.Inst{loadAt(1, 1<<20, 8)}
	var dep isa.Inst
	dep.Op = isa.FPAdd
	dep.AddDest(isa.R(isa.FP, 2))
	dep.AddSrc(isa.R(isa.FP, 1))
	insts = append(insts, dep)
	seqPCs(0x1000, insts)
	st := simulate(t, bigCfg(), insts)
	if st.Cycles < 200 {
		t.Errorf("cold load chain completed in %d cycles, want >= 200", st.Cycles)
	}
	if st.Loads != 1 {
		t.Errorf("loads = %d", st.Loads)
	}
}

func TestMemoryLevelParallelism(t *testing.T) {
	// Eight independent cold loads must overlap: far less than 8× the
	// single-load time.
	single := seqPCs(0x1000, []isa.Inst{loadAt(1, 1<<20, 8)})
	stSingle := simulate(t, bigCfg(), single)

	many := make([]isa.Inst, 8)
	for i := range many {
		many[i] = loadAt(1+i, uint64(1<<20)+uint64(i)<<14, 8)
	}
	seqPCs(0x1000, many)
	stMany := simulate(t, bigCfg(), many)
	if stMany.Cycles > stSingle.Cycles*3 {
		t.Errorf("8 independent loads took %d cycles vs %d for one: no MLP", stMany.Cycles, stSingle.Cycles)
	}
}

func TestVectorLoadSplitsIntoLineRequests(t *testing.T) {
	// A 256-byte SVE load over 64-byte lines issues 4 requests.
	cfg := bigCfg()
	cfg.VectorLength = 2048
	cfg.LoadBandwidth = 256
	cfg.StoreBandwidth = 256
	ld := loadAt(1, 1<<20, 256)
	ld.SVE = true
	st := simulate(t, cfg, seqPCs(0x1000, []isa.Inst{ld}))
	if st.MemRequests != 4 {
		t.Errorf("vector load issued %d requests, want 4", st.MemRequests)
	}
	if st.SVERetired != 1 {
		t.Errorf("SVE retired = %d", st.SVERetired)
	}
}

func TestLoadBandwidthGatesThroughput(t *testing.T) {
	// Stream 64-byte loads over a 16-line resident set (so cold misses
	// are negligible); cutting the load bandwidth to 16 bytes/cycle
	// forces 4 cycles per load.
	const n = 600
	mk := func() []isa.Inst {
		insts := make([]isa.Inst, n)
		for i := range insts {
			insts[i] = loadAt(1+i%16, uint64(1<<20)+uint64(i%16)*64, 64)
			insts[i].SVE = true
		}
		return seqPCs(0x1000, insts)
	}
	wide := bigCfg()
	wide.VectorLength = 512
	wide.LoadBandwidth = 128
	wide.StoreBandwidth = 128
	stWide := simulate(t, wide, mk())

	narrow := wide
	narrow.VectorLength = 128
	narrow.LoadBandwidth = 16
	narrow.StoreBandwidth = 16
	stNarrow := simulate(t, narrow, mk())
	if stNarrow.Cycles <= stWide.Cycles*2 {
		t.Errorf("narrow load bandwidth (%d cycles) not clearly slower than wide (%d)", stNarrow.Cycles, stWide.Cycles)
	}
}

func TestMemLoadsPerCycleGatesThroughput(t *testing.T) {
	const n = 200
	mk := func() []isa.Inst {
		insts := make([]isa.Inst, n)
		for i := range insts {
			insts[i] = loadAt(1+i%16, uint64(1<<20)+uint64(i%64)*8, 8)
		}
		return seqPCs(0x1000, insts)
	}
	fast := bigCfg()
	fast.MemLoadsPerCycle = 4
	stFast := simulate(t, fast, mk())
	slow := bigCfg()
	slow.MemLoadsPerCycle = 1
	stSlow := simulate(t, slow, mk())
	if stSlow.Cycles <= stFast.Cycles {
		t.Errorf("1 load/cycle (%d) not slower than 4 (%d)", stSlow.Cycles, stFast.Cycles)
	}
}

func TestStoresDrainAndCount(t *testing.T) {
	const n = 50
	insts := make([]isa.Inst, n)
	for i := range insts {
		insts[i] = storeAt(1, uint64(1<<20)+uint64(i)*64, 8)
	}
	seqPCs(0x1000, insts)
	st := simulate(t, bigCfg(), insts)
	if st.Stores != n {
		t.Errorf("stores = %d, want %d", st.Stores, n)
	}
	if st.MemRequests < n {
		t.Errorf("store writes issued %d requests, want >= %d", st.MemRequests, n)
	}
}

func TestSmallQueuesStall(t *testing.T) {
	const n = 100
	loads := make([]isa.Inst, n)
	for i := range loads {
		loads[i] = loadAt(1+i%16, uint64(1<<20)+uint64(i)<<12, 8)
	}
	seqPCs(0x1000, loads)
	cfg := bigCfg()
	cfg.LoadQueueSize = 1
	st := simulate(t, cfg, loads)
	if st.LQStalls == 0 {
		t.Error("no LQ stalls with a single-entry load queue")
	}

	stores := make([]isa.Inst, n)
	for i := range stores {
		stores[i] = storeAt(1, uint64(1<<20)+uint64(i)<<12, 8)
	}
	seqPCs(0x1000, stores)
	cfg2 := bigCfg()
	cfg2.StoreQueueSize = 1
	st2 := simulate(t, cfg2, stores)
	if st2.SQStalls == 0 {
		t.Error("no SQ stalls with a single-entry store queue")
	}
}

func TestROBStalls(t *testing.T) {
	// A cold load followed by many independent ALUs: the tiny ROB fills
	// behind the load.
	insts := []isa.Inst{loadAt(1, 1<<20, 8)}
	for i := 0; i < 100; i++ {
		insts = append(insts, alu(0, 1+i%16, 20))
	}
	seqPCs(0x1000, insts)
	cfg := bigCfg()
	cfg.ROBSize = 8
	st := simulate(t, cfg, insts)
	if st.ROBStalls == 0 {
		t.Error("no ROB stalls with an 8-entry ROB behind a cold miss")
	}
}

func TestDeterminism(t *testing.T) {
	insts := tightLoop(10, 30)
	a := simulate(t, bigCfg(), insts)
	b := simulate(t, bigCfg(), insts)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestCoreSingleUse(t *testing.T) {
	h, err := sstmem.New(testMemCfg())
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(bigCfg(), h)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(isa.NewSliceStream(nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(isa.NewSliceStream(nil)); err == nil {
		t.Error("core reuse accepted")
	}
}

func TestNewErrors(t *testing.T) {
	h, err := sstmem.New(testMemCfg())
	if err != nil {
		t.Fatal(err)
	}
	bad := bigCfg()
	bad.ROBSize = 1
	if _, err := New(bad, h); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := New(bigCfg(), nil); err == nil {
		t.Error("nil hierarchy accepted")
	}
}

func TestRunErrorsOnBadRegister(t *testing.T) {
	var in isa.Inst
	in.Op = isa.IntALU
	in.AddDest(isa.R(isa.GP, 200)) // beyond the 32 architectural GPs
	_, err := Simulate(bigCfg(), testMem(), isa.NewSliceStream([]isa.Inst{in}))
	if err == nil || !strings.Contains(err.Error(), "architectural range") {
		t.Errorf("err = %v, want architectural-range error", err)
	}
}

func TestRunErrorsOnZeroByteAccess(t *testing.T) {
	ld := loadAt(1, 1<<20, 8)
	ld.Mem.Bytes = 0
	_, err := Simulate(bigCfg(), testMem(), isa.NewSliceStream(seqPCs(0x1000, []isa.Inst{ld})))
	if err == nil || !strings.Contains(err.Error(), "zero-byte") {
		t.Errorf("err = %v, want zero-byte error", err)
	}
}

func TestCycleLimit(t *testing.T) {
	h, err := sstmem.New(testMemCfg())
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(bigCfg(), h)
	if err != nil {
		t.Fatal(err)
	}
	insts := tightLoop(10, 1000)
	if _, err := c.RunLimit(isa.NewSliceStream(insts), 10); err == nil {
		t.Error("cycle limit not enforced")
	}
}

func TestStatsString(t *testing.T) {
	st := simulate(t, bigCfg(), tightLoop(5, 10))
	s := st.String()
	if !strings.Contains(s, "cycles=") || !strings.Contains(s, "ipc=") {
		t.Errorf("Stats.String() = %q", s)
	}
	if st.IPC() <= 0 {
		t.Errorf("IPC = %g", st.IPC())
	}
	var zero Stats
	if zero.IPC() != 0 || zero.VectorisationPct() != 0 {
		t.Error("zero stats not safe")
	}
}

func TestBranchesCountAndRedirectCost(t *testing.T) {
	// Taken branches end fetch groups: a stream of taken branches to the
	// next PC fetches one instruction per cycle.
	const n = 100
	insts := make([]isa.Inst, n)
	for i := range insts {
		var br isa.Inst
		br.Op = isa.Branch
		br.PC = 0x1000 + uint64(i*8) // every other slot
		br.Branch = isa.BranchInfo{Taken: true, Target: br.PC + 8}
		insts[i] = br
	}
	cfg := bigCfg()
	cfg.LoopBufferSize = 0
	st := simulate(t, cfg, insts)
	if st.Branches != n {
		t.Errorf("branches = %d, want %d", st.Branches, n)
	}
	if st.Cycles < n {
		t.Errorf("taken-branch stream in %d cycles, want >= %d (one fetch group each)", st.Cycles, n)
	}
}

func TestRingBasics(t *testing.T) {
	r := newRing[int](2)
	if !r.Empty() || r.Full() {
		t.Fatal("fresh ring state wrong")
	}
	r.Push(1)
	r.Push(2)
	if !r.Full() || r.Len() != 2 {
		t.Fatal("full ring state wrong")
	}
	if *r.Peek() != 1 {
		t.Error("peek wrong")
	}
	if r.Pop() != 1 || r.Pop() != 2 {
		t.Error("FIFO order broken")
	}
	func() {
		defer func() { recover() }()
		r.Pop()
		t.Error("pop of empty ring did not panic")
	}()
}

// TestWheelHorizon guards the timing wheels: a wake-up wheelSize or more
// cycles ahead would alias an earlier slot, so every execution latency (the
// farthest wake-up the core schedules) must stay below it.
func TestWheelHorizon(t *testing.T) {
	for g := isa.Group(0); g < isa.NumGroups; g++ {
		if lat := g.Latency(); lat >= wheelSize {
			t.Errorf("%v latency %d reaches the %d-slot wheel horizon", g, lat, wheelSize)
		}
	}
}

func TestNextWheelCycle(t *testing.T) {
	for _, tc := range []struct {
		now  int64
		at   []int64
		want int64
	}{
		{now: 0, at: []int64{1}, want: 1},
		{now: 0, at: []int64{63, 5}, want: 5},
		{now: 62, at: []int64{63, 64, 100}, want: 63},
		{now: 63, at: []int64{126, 64}, want: 64},
		{now: 1000, at: []int64{1063}, want: 1063},
		{now: 1000, at: []int64{1020, 1001}, want: 1001},
	} {
		var mask uint64
		for _, at := range tc.at {
			mask |= 1 << (at & (wheelSize - 1))
		}
		if got := nextWheelCycle(mask, tc.now); got != tc.want {
			t.Errorf("now %d, pending %v: next = %d, want %d", tc.now, tc.at, got, tc.want)
		}
	}
}

func TestHeaps(t *testing.T) {
	var sh seqHeap
	for i, v := range []int64{50, 10, 90, 30} {
		sh.Push(seqEvent{at: v, seq: int64(i)})
	}
	prev := int64(-1)
	for sh.Len() > 0 {
		e := sh.Pop()
		if e.at < prev {
			t.Fatal("seqHeap order violated")
		}
		prev = e.at
	}
}
