package simeng

import "fmt"

// FlatMem is the simplest MemoryBackend: every line request completes after
// a fixed latency, with an optional per-cycle line-throughput cap. It models
// an ideal (perfect-cache) memory system, which makes it the reference
// backend for isolating core-bound behaviour — any stall the core shows on
// FlatMem is the core's own (rename, ROB, ports), not the hierarchy's — and
// the fast default for tests that do not care about cache behaviour.
type FlatMem struct {
	latency   int64
	lineBytes int
	// linesPerCycle caps lines accepted per cycle; 0 is uncapped. Excess
	// lines in one cycle complete one extra cycle later per full group,
	// mimicking a request queue draining at the cap.
	linesPerCycle int

	cycle  int64
	issued int
	stats  MemStats
}

// NewFlatMem builds a flat backend with the given fixed latency in core
// cycles and line size in bytes. linesPerCycle caps line throughput per
// cycle (0 = unlimited).
func NewFlatMem(latency int64, lineBytes, linesPerCycle int) (*FlatMem, error) {
	if latency < 1 {
		return nil, fmt.Errorf("simeng: flat memory latency %d < 1", latency)
	}
	if lineBytes < 4 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("simeng: flat memory line size %d not a power of two >= 4", lineBytes)
	}
	if linesPerCycle < 0 {
		return nil, fmt.Errorf("simeng: flat memory lines/cycle %d < 0", linesPerCycle)
	}
	return &FlatMem{latency: latency, lineBytes: lineBytes, linesPerCycle: linesPerCycle}, nil
}

// tick starts the per-cycle issue count afresh when now is a new cycle.
func (m *FlatMem) tick(now int64) {
	if now != m.cycle {
		m.cycle, m.issued = now, 0
	}
}

// Access implements MemoryBackend. Every access counts as an L1 hit — the
// flat model is an always-hitting cache.
func (m *FlatMem) Access(now int64, addr uint64, store bool) int64 {
	m.stats.Accesses++
	m.stats.L1Hits++
	var queued int64
	if m.linesPerCycle > 0 {
		m.tick(now)
		queued = int64(m.issued / m.linesPerCycle)
		m.issued++
	}
	return now + m.latency + queued
}

// LineBytes implements MemoryBackend.
func (m *FlatMem) LineBytes() int { return m.lineBytes }

// Stats implements MemoryBackend.
func (m *FlatMem) Stats() MemStats { return m.stats }
