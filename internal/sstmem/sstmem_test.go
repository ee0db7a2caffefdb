package sstmem

import (
	"strings"
	"testing"
	"testing/quick"
)

// testConfig returns a small valid configuration.
func testConfig() Config {
	return Config{
		CacheLineWidth:  64,
		L1DSize:         32 << 10,
		L1DAssoc:        4,
		L1DLatency:      2,
		L1DClockGHz:     2.5,
		L1DMSHRs:        8,
		L2Size:          512 << 10,
		L2Assoc:         8,
		L2Latency:       10,
		L2ClockGHz:      2.5,
		RAMLatencyNs:    80,
		RAMBandwidthGBs: 50,
		CoreClockGHz:    2.5,
	}
}

func mustNew(t *testing.T, cfg Config) *Hierarchy {
	t.Helper()
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	broken := []func(*Config){
		func(c *Config) { c.CacheLineWidth = 48 },
		func(c *Config) { c.CacheLineWidth = 8 },
		func(c *Config) { c.L1DSize = 16 },
		func(c *Config) { c.L1DAssoc = 0 },
		func(c *Config) { c.L1DLatency = 0 },
		func(c *Config) { c.L1DClockGHz = 0 },
		func(c *Config) { c.L1DMSHRs = 0 },
		func(c *Config) { c.L2Size = c.L1DSize },
		func(c *Config) { c.L2Assoc = 0 },
		func(c *Config) { c.L1DSize = 48 << 10 },    // 192 sets
		func(c *Config) { c.L2Size = 1536 << 10 },   // 3,072 sets
		func(c *Config) { c.L2Size = 512<<10 + 32 }, // not whole lines
		func(c *Config) { c.L2Latency = c.L1DLatency },
		func(c *Config) { c.L2ClockGHz = -1 },
		func(c *Config) { c.RAMLatencyNs = 0 },
		func(c *Config) { c.RAMBandwidthGBs = 0 },
	}
	for i, mutate := range broken {
		c := testConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
		if _, err := New(c); err == nil {
			t.Errorf("New accepted mutation %d", i)
		}
	}
}

// TestValidateRejectsShrunkGeometry pins that a level whose set count the
// cache would round down is refused with the set count it would model, while
// a non-power-of-two associativity over a power-of-two set count passes.
func TestValidateRejectsShrunkGeometry(t *testing.T) {
	c := testConfig()
	c.L2Size, c.L2Assoc = 1536<<10, 16 // 1,536 sets would model 1,024: 1 MiB
	err := c.Validate()
	if err == nil || !strings.Contains(err.Error(), "1024 sets") || !strings.Contains(err.Error(), "1048576 B") {
		t.Errorf("1.5 MiB 16-way L2: err = %v, want it to name 1024 sets and 1048576 B", err)
	}
	c.L2Size, c.L2Assoc = 96<<10, 3 // 512 sets of 3 ways
	if err := c.Validate(); err != nil {
		t.Errorf("96 KiB 3-way L2 rejected: %v", err)
	}
}

func TestLatencyScaling(t *testing.T) {
	c := testConfig()
	// Matched clocks: latencies pass through.
	if got := c.l1LatencyCore(); got != 2 {
		t.Errorf("L1 latency = %d core cycles, want 2", got)
	}
	// Half-speed cache doubles core-cycle latency.
	c.L1DClockGHz = 1.25
	if got := c.l1LatencyCore(); got != 4 {
		t.Errorf("half-clock L1 latency = %d, want 4", got)
	}
	// Faster-than-core cache shrinks it, floor 1.
	c.L1DClockGHz = 10
	c.L1DLatency = 1
	if got := c.l1LatencyCore(); got != 1 {
		t.Errorf("fast L1 latency = %d, want 1", got)
	}
	// RAM: 80 ns at 2.5 GHz = 200 cycles.
	if got := c.ramLatencyCore(); got != 200 {
		t.Errorf("RAM latency = %d, want 200", got)
	}
	// 50 GB/s at 2.5 GHz = 20 B/cycle.
	if got := c.ramBytesPerCycle(); got != 20 {
		t.Errorf("RAM B/cycle = %g, want 20", got)
	}
}

func TestCacheGeometry(t *testing.T) {
	c := newCache(32<<10, 4, 64)
	if c.sets != 128 || c.assoc != 4 {
		t.Errorf("geometry = %d sets × %d ways, want 128×4", c.sets, c.assoc)
	}
	// Degenerate: capacity below assoc×line collapses.
	tiny := newCache(64, 8, 64)
	if tiny.Lines() != 1 {
		t.Errorf("tiny cache lines = %d, want 1", tiny.Lines())
	}
	// Non-power-of-two set count rounds down.
	odd := newCache(3*64*4, 4, 64) // 3 sets -> 2
	if odd.sets != 2 {
		t.Errorf("odd sets = %d, want 2", odd.sets)
	}
}

// resident reports a lookup hit, touching LRU like a demand load.
func resident(c *cache, addr uint64) bool {
	hit, _ := c.lookup(addr, false)
	return hit
}

func TestCacheLRU(t *testing.T) {
	c := newCache(2*64, 2, 64) // one set, two ways
	if hit, _ := c.lookup(0, false); hit {
		t.Fatal("cold hit")
	}
	c.fill(0, false, 0)
	c.fill(64, false, 0)
	if !resident(c, 0) || !resident(c, 64) {
		t.Fatal("fills not resident")
	}
	// Touch line 0 so line 64 is LRU; filling a third line evicts 64.
	c.lookup(0, false)
	evicted, dirty, valid := c.fill(128, false, 0)
	if !valid || evicted != 64 || dirty {
		t.Errorf("evicted (%d, dirty=%v, valid=%v), want (64, false, true)", evicted, dirty, valid)
	}
	if !resident(c, 0) || resident(c, 64) || !resident(c, 128) {
		t.Error("post-eviction residency wrong")
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	c := newCache(64, 1, 64) // single line
	c.fill(0, true, 0)       // dirty fill
	evicted, dirty, valid := c.fill(64, false, 0)
	if !valid || evicted != 0 || !dirty {
		t.Errorf("dirty eviction = (%d, %v, %v)", evicted, dirty, valid)
	}
	// Store hit dirties a clean line.
	c2 := newCache(64, 1, 64)
	c2.fill(0, false, 0)
	c2.lookup(0, true)
	_, dirty, _ = c2.fill(64, false, 0)
	if !dirty {
		t.Error("store hit did not dirty the line")
	}
}

// TestCacheReadyCycle pins the per-way fill-ready cycle: a hit returns the
// latest fill's ready cycle, including a refill of a line already present.
func TestCacheReadyCycle(t *testing.T) {
	c := newCache(2*64, 2, 64)
	c.fill(0, false, 40)
	if hit, ready := c.lookup(0, false); !hit || ready != 40 {
		t.Errorf("lookup = (%v, %d), want (true, 40)", hit, ready)
	}
	c.fill(0, false, 25) // already present: the new ready cycle wins
	if _, ready := c.lookup(0, false); ready != 25 {
		t.Errorf("refill ready = %d, want 25", ready)
	}
	if hit, ready := c.lookup(64, false); hit || ready != 0 {
		t.Errorf("miss = (%v, %d), want (false, 0)", hit, ready)
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := newCache(4*64, 2, 64)
	c.fill(0, false, 0)
	c.invalidate(0)
	if c.present(0) {
		t.Error("line survives invalidate")
	}
	c.invalidate(128) // absent line: no-op
}

func TestHitAndMissLatency(t *testing.T) {
	h := mustNew(t, testConfig())
	// Cold miss: L1 detect (2) + L2 probe (10) + RAM (200) = 212.
	done := h.Access(0, 0, false)
	if done != 212 {
		t.Errorf("cold miss latency = %d, want 212", done)
	}
	// Re-access after fill: L1 hit at +2.
	if got := h.Access(done, 0, false); got != done+2 {
		t.Errorf("hit latency = %d, want %d", got, done+2)
	}
	s := h.Stats()
	if s.L1Hits != 1 || s.L1Misses != 1 || s.L2Misses != 1 || s.RAMReads < 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestHitUnderFillCoalesces(t *testing.T) {
	h := mustNew(t, testConfig())
	fill := h.Access(0, 0, false)
	// Second access to the same line one cycle later must wait for the
	// in-flight fill, not issue new RAM traffic.
	ramBefore := h.Stats().RAMReads
	got := h.Access(1, 8, false)
	if got != fill {
		t.Errorf("coalesced access done at %d, want %d", got, fill)
	}
	if h.Stats().RAMReads != ramBefore {
		t.Error("coalesced access issued RAM traffic")
	}
}

func TestL2HitPath(t *testing.T) {
	cfg := testConfig()
	cfg.L1DSize = 1 << 10 // 16 lines: easy to thrash
	h := mustNew(t, cfg)
	// Fill a line, thrash L1 with conflicting lines, then re-access: it
	// should hit L2 (12 cycles) rather than RAM (200+).
	h.Access(0, 0, false)
	now := int64(100_000)
	for i := 1; i <= 64; i++ {
		h.Access(now, uint64(i*1024), false)
		now += 1000
	}
	l2HitsBefore := h.Stats().L2Hits
	done := h.Access(now, 0, false)
	if h.Stats().L2Hits != l2HitsBefore+1 {
		t.Fatalf("expected an L2 hit; stats %+v", h.Stats())
	}
	lat := done - now
	want := h.l1Lat + h.l2Lat
	if lat != want {
		t.Errorf("L2 hit latency = %d, want %d", lat, want)
	}
}

func TestMSHRLimitStalls(t *testing.T) {
	cfg := testConfig()
	cfg.L1DMSHRs = 1
	h1 := mustNew(t, cfg)
	// Two misses to distinct, non-adjacent lines in the same cycle: the
	// second must wait for the first fill with only one MSHR.
	d1 := h1.Access(0, 0, false)
	d2 := h1.Access(0, 1<<20, false)
	if d2 <= d1 {
		t.Errorf("single MSHR: second miss done %d, first %d", d2, d1)
	}
	if h1.Stats().MSHRStallCycles == 0 {
		t.Error("no MSHR stall recorded")
	}

	cfg.L1DMSHRs = 8
	h8 := mustNew(t, cfg)
	h8.Access(0, 0, false)
	d2p := h8.Access(0, 1<<20, false)
	if d2p >= d2 {
		t.Errorf("8 MSHRs no faster than 1: %d vs %d", d2p, d2)
	}
}

func TestRAMBandwidthSerialises(t *testing.T) {
	cfg := testConfig()
	cfg.RAMBandwidthGBs = 2.5 // 1 B/cycle -> 64-cycle slots
	h := mustNew(t, cfg)
	// Many parallel misses to distinct lines far apart (defeat prefetch).
	var last int64
	for i := 0; i < 8; i++ {
		last = h.Access(0, uint64(i)<<20, false)
	}
	// With 64-cycle channel slots the eighth request cannot complete
	// before 7 slots of queueing.
	if minDone := int64(7*64 + 200); last < minDone {
		t.Errorf("8th parallel miss done at %d, want >= %d", last, minDone)
	}

	// Higher bandwidth shrinks the queueing.
	cfg.RAMBandwidthGBs = 250 // 100 B/cycle
	hf := mustNew(t, cfg)
	var lastf int64
	for i := 0; i < 8; i++ {
		lastf = hf.Access(0, uint64(i)<<20, false)
	}
	if lastf >= last {
		t.Errorf("high bandwidth (%d) not faster than low (%d)", lastf, last)
	}
}

func TestWiderLinesRaiseEffectiveBandwidth(t *testing.T) {
	// The paper's Cache-Line-Width observation: same request latency,
	// more bytes per request. Streaming N bytes through RAM must finish
	// sooner with wider lines.
	finish := func(lineBytes int) int64 {
		cfg := testConfig()
		cfg.CacheLineWidth = lineBytes
		cfg.RAMBandwidthGBs = 10
		h := mustNew(t, cfg)
		const total = 1 << 20
		var done int64
		now := int64(0)
		for a := 0; a < total; a += lineBytes {
			done = h.Access(now, uint64(a)+(8<<20), false)
			now += 2
		}
		return done
	}
	d64, d256 := finish(64), finish(256)
	if d256 >= d64 {
		t.Errorf("256B lines (%d cycles) not faster than 64B (%d)", d256, d64)
	}
	if ratio := float64(d64) / float64(d256); ratio < 2 {
		t.Errorf("line-width speedup %.2f, want >= 2", ratio)
	}
}

func TestPrefetchHelpsStreaming(t *testing.T) {
	cfg := testConfig()
	h := mustNew(t, cfg)
	// Stream sequentially; next-line prefetch should give far fewer RAM
	// reads at demand-miss time than lines touched.
	now := int64(0)
	var misses int64
	for a := 0; a < 1<<19; a += 64 {
		h.Access(now, uint64(a)+(32<<20), false)
		now += 10
	}
	misses = h.Stats().L1Misses
	lines := int64((1 << 19) / 64)
	if h.Stats().Prefetches == 0 {
		t.Fatal("no prefetches issued")
	}
	if misses >= lines {
		t.Errorf("every line missed (%d of %d) despite prefetch", misses, lines)
	}
}

func TestHighFidelityFeatures(t *testing.T) {
	cfg := testConfig()
	cfg.Fidelity = High
	h := mustNew(t, cfg)
	now := int64(0)
	for a := 0; a < 1<<18; a += 64 {
		h.Access(now, uint64(a)+(32<<20), false)
		now += 4
	}
	s := h.Stats()
	if s.RowHits+s.RowMisses == 0 {
		t.Error("high fidelity recorded no DRAM row activity")
	}
	if s.RowHits == 0 {
		t.Error("sequential stream should hit DRAM rows")
	}

	// Basic fidelity records no row stats.
	hb := mustNew(t, testConfig())
	hb.Access(0, 0, false)
	if st := hb.Stats(); st.RowHits+st.RowMisses != 0 {
		t.Error("basic fidelity tracked rows")
	}
}

func TestStoresDirtyAndWriteBack(t *testing.T) {
	cfg := testConfig()
	cfg.L1DSize = 1 << 10
	cfg.L2Size = 2 << 10 // tiny: force L2 evictions of dirty lines
	h := mustNew(t, cfg)
	now := int64(0)
	for a := 0; a < 1<<16; a += 64 {
		h.Access(now, uint64(a)+(32<<20), true)
		now += 300
	}
	if h.Stats().Writebacks == 0 {
		t.Error("streaming stores produced no writebacks")
	}
}

func TestDefaultCoreClockApplied(t *testing.T) {
	cfg := testConfig()
	cfg.CoreClockGHz = 0
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.Config().CoreClockGHz != DefaultCoreClockGHz {
		t.Errorf("core clock = %g, want %g", h.Config().CoreClockGHz, DefaultCoreClockGHz)
	}
}

func TestMonotonicCompletion(t *testing.T) {
	// Property: completion cycle never precedes issue cycle plus the L1
	// latency, for arbitrary access sequences.
	cfg := testConfig()
	f := func(addrs []uint32, stores []bool) bool {
		h, err := New(cfg)
		if err != nil {
			return false
		}
		now := int64(0)
		for i, a := range addrs {
			store := i < len(stores) && stores[i]
			done := h.Access(now, uint64(a), store)
			if done < now+h.l1Lat {
				return false
			}
			now += int64(a % 7)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStatsConsistency(t *testing.T) {
	// Property: accesses = L1 hits + misses; L1 misses = L2 hits + misses.
	cfg := testConfig()
	f := func(addrs []uint16) bool {
		h, err := New(cfg)
		if err != nil {
			return false
		}
		now := int64(0)
		for _, a := range addrs {
			h.Access(now, uint64(a)*64, a%3 == 0)
			now += 5
		}
		s := h.Stats()
		return s.Accesses == s.L1Hits+s.L1Misses && s.L1Misses == s.L2Hits+s.L2Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFidelityString(t *testing.T) {
	if Basic.String() != "basic" || High.String() != "high" {
		t.Error("fidelity names wrong")
	}
}
