package simeng

import "armdse/internal/memstats"

// MemStats is the backend-neutral memory-counter snapshot every backend
// reports (an alias of memstats.Counters, the shared leaf type).
type MemStats = memstats.Counters

// MemoryBackend is the seam between the core and its memory system. The
// core's LSQ issues line-sized demand requests and consumes completion
// cycles; everything behind that contract — cache levels, MSHRs,
// prefetchers, DRAM models, or a flat fixed latency — is the backend's
// business. Implementations in this repository: sstmem.Hierarchy (the
// study's SST-like L1/L2/RAM model, or at High fidelity the Table I
// hardware proxy) and FlatMem (fixed latency, for isolating core-bound
// behaviour).
//
// Backends are single-consumer and need not be safe for concurrent use;
// build one backend per core per run.
type MemoryBackend interface {
	// Access issues one demand request for the line containing addr at
	// core cycle now and returns the cycle its data is available to the
	// core (loads) or owned (stores). Calls are made in non-decreasing
	// now order, but now is not contiguous — the core skips idle cycles —
	// so backends with per-cycle state (credits, slot counters) must key
	// it off now, not count calls.
	Access(now int64, addr uint64, store bool) int64
	// LineBytes is the request granule in bytes (the cache line width);
	// the core splits wider accesses into LineBytes-sized requests. It
	// must be a power of two and constant over the backend's lifetime.
	LineBytes() int
	// Stats snapshots the accumulated counters; backends leave counters
	// for features they do not model at zero.
	Stats() MemStats
}
