package sstmem

import "armdse/internal/memstats"

// Stats counts memory-system events over a run. It is the backend-neutral
// counter set shared by every memory backend implementation (see memstats),
// so the core's run statistics carry the same snapshot type whichever
// backend produced them.
type Stats = memstats.Counters

// Hierarchy is the L1D→L2→RAM memory system. It is single-consumer: the
// core's LSQ issues line-sized requests in non-decreasing cycle order and
// receives the completion cycle of each. A Hierarchy can be rebuilt in
// place for a new configuration with Reset, retaining all backing arrays
// (cache ways, MSHRs, bank state) — a pooled hierarchy allocates nothing
// per run at steady state.
type Hierarchy struct {
	cfg Config

	l1, l2 cache

	l1Lat, l2Lat, ramLat int64
	// ramInterval is the core-cycle spacing between RAM request starts:
	// the channel sustains RAMBandwidthGBs of reference 64-byte requests,
	// so wider cache lines deliver proportionally more data per slot —
	// reproducing the paper's observation that Cache-Line-Width raises
	// effective L2-RAM bandwidth because "each memory request has the
	// same latency, yet yields more data".
	ramInterval float64
	ramFree     float64

	// mshrs holds the completion cycles of in-flight L1 demand misses.
	mshrs []int64

	// High-fidelity state.
	banks     []int64  // per-bank next-free cycle (L1 domain)
	openRows  []uint64 // per-DRAM-bank open row (row-buffer model)
	openValid []bool
	// streams is the stride-prefetcher table, one entry per 64 KiB
	// region, so interleaved array streams are tracked independently.
	streams [strideStreams]strideEntry

	stats Stats
}

// ramRefBytes is the reference request size defining RAMBandwidthGBs.
const ramRefBytes = 64.0

// highFidelityBanks is the cache bank count of the High fidelity model.
const highFidelityBanks = 16

// dramBanks is the DRAM bank count of the High fidelity row-buffer model;
// each bank keeps one row open, so interleaved array streams (like STREAM's
// three arrays) each retain their own locality.
const dramBanks = 8

// strideStreams is the stride-prefetcher table size (direct-mapped by
// 64 KiB region).
const strideStreams = 16

// strideEntry is one tracked access stream.
type strideEntry struct {
	region uint64
	last   uint64
	stride int64
	valid  bool
}

// New builds a hierarchy from cfg.
func New(cfg Config) (*Hierarchy, error) {
	h := &Hierarchy{}
	if err := h.Reset(cfg); err != nil {
		return nil, err
	}
	return h, nil
}

// Reset rebuilds the hierarchy in place for a new run on cfg, exactly as if
// it had been built with New — but retaining every backing array (cache
// way tables, MSHR slots, bank and prefetcher state) so
// a pooled hierarchy allocates nothing per run at steady state. The
// pooled-vs-fresh differential tests pin that a run after Reset is
// byte-identical to the same run on a fresh hierarchy.
func (h *Hierarchy) Reset(cfg Config) error {
	if cfg.CoreClockGHz == 0 {
		cfg.CoreClockGHz = DefaultCoreClockGHz
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	h.cfg = cfg
	h.l1.reset(cfg.L1DSize, cfg.L1DAssoc, cfg.CacheLineWidth)
	h.l2.reset(cfg.L2Size, cfg.L2Assoc, cfg.CacheLineWidth)
	h.l1Lat = cfg.l1LatencyCore()
	h.l2Lat = cfg.l2LatencyCore()
	h.ramLat = cfg.ramLatencyCore()
	h.ramInterval = ramRefBytes / cfg.ramBytesPerCycle()
	h.ramFree = 0
	if cap(h.mshrs) >= cfg.L1DMSHRs {
		h.mshrs = h.mshrs[:cfg.L1DMSHRs]
		clear(h.mshrs)
	} else {
		h.mshrs = make([]int64, cfg.L1DMSHRs)
	}
	if cfg.Fidelity == High {
		// The High-fidelity arrays have fixed sizes; once allocated they
		// are retained (and cleared) across resets, whatever fidelity the
		// intervening runs used.
		if h.banks == nil {
			h.banks = make([]int64, highFidelityBanks)
			h.openRows = make([]uint64, dramBanks)
			h.openValid = make([]bool, dramBanks)
		} else {
			clear(h.banks)
			clear(h.openRows)
			clear(h.openValid)
		}
	}
	h.streams = [strideStreams]strideEntry{}
	h.stats = Stats{}
	return nil
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Stats returns the accumulated event counts.
func (h *Hierarchy) Stats() Stats { return h.stats }

// LineBytes returns the cache line width.
func (h *Hierarchy) LineBytes() int { return h.cfg.CacheLineWidth }

// Access issues one demand request for the line containing addr at core
// cycle now and returns the cycle its data is available to the core. Stores
// are write-allocate and return ownership time. Calls must be made in
// non-decreasing now order.
func (h *Hierarchy) Access(now int64, addr uint64, store bool) int64 {
	h.stats.Accesses++
	line := addr >> h.l1.lineShift

	// Bank arbitration (High fidelity only): requests to the same bank in
	// the same cycle serialise. Gated on the fidelity, not on the banks
	// array, which a Reset keeps for later Basic runs.
	start := now
	if h.cfg.Fidelity == High {
		b := int(line) & (len(h.banks) - 1)
		start = max(now, h.banks[b])
		h.banks[b] = start + 1
	}

	if hit, ready := h.l1.lookup(addr, store); hit {
		h.stats.L1Hits++
		if ready > start {
			// Hit under an in-flight (typically prefetched) fill: chain
			// the prefetcher forward so sequential streams run ahead of
			// demand instead of arriving in lock-step with it.
			h.prefetchAfterMiss(addr, start+h.l1Lat)
		}
		return max(start+h.l1Lat, ready)
	}
	h.stats.L1Misses++

	// Acquire an MSHR: reuse a slot whose fill has completed, else wait
	// for the earliest one.
	slot := -1
	for i, c := range h.mshrs {
		if c <= start {
			slot = i
			break
		}
	}
	if slot == -1 {
		slot = 0
		for i, c := range h.mshrs {
			if c < h.mshrs[slot] {
				slot = i
			}
		}
		h.stats.MSHRStallCycles += h.mshrs[slot] - start
		start = h.mshrs[slot]
	}

	fill := h.fetchIntoL1(start, addr, store)
	h.mshrs[slot] = fill

	// Prefetches issue from the controller alongside the demand miss, not
	// after its fill returns.
	h.prefetchAfterMiss(addr, start+h.l1Lat)
	return fill
}

// fetchIntoL1 brings the line containing addr into L1 (and L2, inclusive),
// beginning the L2 probe after the L1 miss is detected at start, and returns
// the fill completion cycle.
func (h *Hierarchy) fetchIntoL1(start int64, addr uint64, store bool) int64 {
	t := start + h.l1Lat // L1 miss detection
	var fill int64
	if hit, ready := h.l2.lookup(addr, false); hit {
		h.stats.L2Hits++
		fill = max(t+h.l2Lat, ready)
	} else {
		h.stats.L2Misses++
		fill = h.ramFetch(t+h.l2Lat, addr)
		h.fillL2(addr, fill)
	}
	h.fillL1(addr, store, fill)
	return fill
}

// ramFetch performs a RAM read arriving at the controller at t and returns
// the data-return cycle, modelling channel-slot serialisation and, in High
// fidelity, the DRAM row buffer.
func (h *Hierarchy) ramFetch(t int64, addr uint64) int64 {
	h.stats.RAMReads++
	reqStart := max(t, int64(h.ramFree))
	h.ramFree = float64(reqStart) + h.ramInterval
	lat := h.ramLat
	if h.cfg.Fidelity == High {
		const rowShift = 13 // 8 KiB DRAM rows
		row := addr >> rowShift
		bank := int(row) & (dramBanks - 1)
		if h.openValid[bank] && row == h.openRows[bank] {
			h.stats.RowHits++
			lat = lat * 6 / 10
		} else {
			h.stats.RowMisses++
			lat = lat * 14 / 10
		}
		h.openRows[bank], h.openValid[bank] = row, true
	}
	return reqStart + lat
}

// fillL2 inserts a line into L2, charging any dirty victim writeback to the
// RAM channel and back-invalidating L1 for inclusion.
func (h *Hierarchy) fillL2(addr uint64, readyAt int64) {
	evicted, dirty, valid := h.l2.fill(addr, false, readyAt)
	if valid {
		h.l1.invalidate(evicted)
		if dirty {
			h.stats.Writebacks++
			h.ramFree += h.ramInterval
		}
	}
}

// fillL1 inserts a line into L1; dirty victims write back into L2 (which is
// inclusive, so the line is present there — no RAM traffic).
func (h *Hierarchy) fillL1(addr uint64, store bool, readyAt int64) {
	evicted, dirty, valid := h.l1.fill(addr, store, readyAt)
	if valid && dirty {
		h.stats.Writebacks++
		h.l2.lookup(evicted, true) // mark dirty in L2 if present
	}
}

// prefetchAfterMiss implements the prefetchers, triggered by demand misses
// and by hits under an in-flight fill. Basic fidelity issues a single
// next-line prefetch (SST's "basic prefetching algorithms"); High fidelity
// runs a per-region stride detector with degree 2. t is the cycle the
// trigger left the L1 lookup.
func (h *Hierarchy) prefetchAfterMiss(addr uint64, t int64) {
	if h.cfg.DisablePrefetch {
		return
	}
	lineBytes := uint64(h.cfg.CacheLineWidth)
	switch h.cfg.Fidelity {
	case Basic:
		h.prefetchLine(addr+lineBytes, t)
	case High:
		const regionShift = 16 // 64 KiB stream regions
		region := addr >> regionShift
		e := &h.streams[int(region)&(strideStreams-1)]
		if e.valid && e.region == region {
			s := int64(addr) - int64(e.last)
			if s == e.stride && s != 0 {
				for d := int64(1); d <= 2; d++ {
					h.prefetchLine(uint64(int64(addr)+s*d), t)
				}
			}
			e.stride = s
		} else {
			e.region = region
			e.stride = 0
		}
		e.last = addr
		e.valid = true
	}
}

// prefetchLine brings a line into L1/L2 if absent, consuming a RAM channel
// slot when it must come from memory. Prefetches never stall demand traffic:
// they use no MSHR; they probe L2 at time t and time their fill like a
// demand fetch would.
func (h *Hierarchy) prefetchLine(addr uint64, t int64) {
	if h.l1.present(addr) {
		return
	}
	h.stats.Prefetches++
	var ready int64
	if hit, _ := h.l2.lookup(addr, false); hit {
		ready = t + h.l2Lat
	} else {
		ready = h.ramFetch(t+h.l2Lat, addr)
		h.fillL2(addr, ready)
	}
	h.fillL1(addr, false, ready)
}
