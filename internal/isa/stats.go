package isa

import "sort"

// Stream statistics. The dynamic instruction stream of a workload is a pure
// function of (application, input, vector length) — the contract every
// workload upholds — so one summary pass over the stream yields statistics
// that hold for every configuration sharing the (app, VL) pair. The
// analytical bound model (simeng.BoundModel) consumes them to compute
// roofline-style cycle bounds per design-space point without simulating:
// instruction mix for the port/width throughput terms, byte traffic for the
// core-L1 bandwidth terms, and per-line-width touch counts for the request
// and RAM-bandwidth terms.

// Line-width range of the study's design space (sstmem.Config validates
// CacheLineWidth as a power of two in [16, 1024]); stream statistics record
// line-granularity counts for every width so one pass serves every
// configuration.
const (
	// MinLineWidth is the smallest cache-line width of the design space.
	MinLineWidth = 16
	// NumLineWidths is the number of power-of-two widths in [16, 1024].
	NumLineWidths = 7
)

// LineWidthIndex maps a cache-line width in bytes to its index in the
// per-width statistics arrays, or -1 when the width is outside the design
// space (not a power of two in [16, 1024]).
func LineWidthIndex(lineBytes int) int {
	if lineBytes < MinLineWidth || lineBytes > MinLineWidth<<(NumLineWidths-1) ||
		lineBytes&(lineBytes-1) != 0 {
		return -1
	}
	idx := 0
	for w := MinLineWidth; w < lineBytes; w <<= 1 {
		idx++
	}
	return idx
}

// StreamStats summarises one dynamic instruction stream. All counts are
// configuration-independent: they depend only on the trace itself.
type StreamStats struct {
	// Insts is the dynamic instruction count.
	Insts int64
	// Groups counts dynamic instructions per execution group.
	Groups [NumGroups]int64
	// SVE counts instructions with at least one Z-register operand.
	SVE int64
	// LoadBytes and StoreBytes total the bytes moved by memory
	// instructions of each kind.
	LoadBytes  int64
	StoreBytes int64
	// TakenBranches counts taken dynamic branch instances (each one
	// breaks a fetch block and redirects fetch).
	TakenBranches int64
	// LineRequests[k] is the total number of line-sized requests the
	// stream issues at line width MinLineWidth<<k — the sum over memory
	// instructions of the lines each access spans. LoadLineRequests and
	// StoreLineRequests split the total by kind.
	LineRequests      [NumLineWidths]int64
	LoadLineRequests  [NumLineWidths]int64
	StoreLineRequests [NumLineWidths]int64
	// UniqueLines[k] is the number of distinct lines of width
	// MinLineWidth<<k the stream touches — the compulsory-miss line count
	// at that width, and a floor on RAM line transfers for any cache of
	// that line size.
	UniqueLines [NumLineWidths]int64
}

// FootprintBytes returns the touched data footprint at the given line
// width: distinct lines times the line size. Returns 0 for widths outside
// the design space.
func (s *StreamStats) FootprintBytes(lineBytes int) int64 {
	k := LineWidthIndex(lineBytes)
	if k < 0 {
		return 0
	}
	return s.UniqueLines[k] * int64(MinLineWidth<<k)
}

// StreamStatsBuilder accumulates StreamStats one instruction at a time, so
// a pass that already walks the trace can fold statistics collection in
// without a second expansion.
type StreamStatsBuilder struct {
	stats StreamStats
	// chunks records the distinct MinLineWidth-granularity chunk indices
	// touched; coarser widths are derived by shifting at Stats time.
	chunks map[uint64]struct{}
}

// NewStreamStatsBuilder returns an empty builder.
func NewStreamStatsBuilder() *StreamStatsBuilder {
	return &StreamStatsBuilder{chunks: make(map[uint64]struct{})}
}

// Add folds one dynamic instruction into the statistics.
func (b *StreamStatsBuilder) Add(in *Inst) {
	b.stats.Insts++
	b.stats.Groups[in.Op]++
	if in.SVE {
		b.stats.SVE++
	}
	switch in.Op {
	case Load:
		b.stats.LoadBytes += int64(in.Mem.Bytes)
	case Store:
		b.stats.StoreBytes += int64(in.Mem.Bytes)
	case Branch:
		if in.Branch.Taken {
			b.stats.TakenBranches++
		}
	}
	if in.Op.IsMem() && in.Mem.Bytes > 0 {
		for k := 0; k < NumLineWidths; k++ {
			n := int64(in.Mem.Lines(MinLineWidth << k))
			b.stats.LineRequests[k] += n
			if in.Op == Load {
				b.stats.LoadLineRequests[k] += n
			} else {
				b.stats.StoreLineRequests[k] += n
			}
		}
		first := in.Mem.Addr / MinLineWidth
		last := (in.Mem.Addr + uint64(in.Mem.Bytes) - 1) / MinLineWidth
		for c := first; c <= last; c++ {
			b.chunks[c] = struct{}{}
		}
	}
}

// Stats finalises and returns the collected statistics. The builder remains
// usable; further Adds extend the same stream.
func (b *StreamStatsBuilder) Stats() StreamStats {
	st := b.stats
	keys := make([]uint64, 0, len(b.chunks))
	for c := range b.chunks {
		keys = append(keys, c)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for k := 0; k < NumLineWidths; k++ {
		var n, prev int64
		seen := false
		for _, c := range keys {
			line := int64(c >> uint(k))
			if !seen || line != prev {
				n++
				prev, seen = line, true
			}
		}
		st.UniqueLines[k] = n
	}
	return st
}

// CollectStreamStats summarises a full stream in one pass. The stream is
// consumed; pass a fresh one (streams are cheap to create — the trace is a
// function of the program, not of any simulation state).
func CollectStreamStats(s Stream) StreamStats {
	b := NewStreamStatsBuilder()
	var in Inst
	for s.Next(&in) {
		b.Add(&in)
	}
	return b.Stats()
}
