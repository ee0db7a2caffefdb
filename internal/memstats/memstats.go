// Package memstats defines the backend-neutral memory-system counters every
// memory backend reports to the core model. It is a leaf package so the core
// (internal/simeng) and the hierarchy (internal/sstmem) can share the
// snapshot type without depending on each other: simeng defines the
// MemoryBackend interface against this type, and each backend returns it
// from its Stats method.
package memstats

// Counters counts memory-system events over a run. Backends leave counters
// for features they do not model at zero: a flat memory has no cache levels,
// and RowHits/RowMisses are only populated by the high-fidelity DRAM
// row-buffer model.
type Counters struct {
	Accesses   int64
	L1Hits     int64
	L1Misses   int64
	L2Hits     int64
	L2Misses   int64
	RAMReads   int64
	Writebacks int64
	Prefetches int64
	// MSHRStallCycles accumulates cycles demand misses waited for a free
	// L1 MSHR.
	MSHRStallCycles int64
	// RowHits/RowMisses are only populated in High fidelity.
	RowHits   int64
	RowMisses int64
}
