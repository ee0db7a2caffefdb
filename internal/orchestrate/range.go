package orchestrate

import "armdse/internal/params"

// RangeSource derives the contiguous global-index range [Lo, Hi) of seed's
// sampling stream — the lease-range config source behind the distributed
// sweep fabric. A worker holding a lease over [Lo, Hi) runs the engine over
// this source and re-bases the emitted row indices by Lo (see Base), so the
// rows it uploads carry the same global indices a single-process sweep
// would journal: the union of all lease ranges compacts byte-identically to
// the single-process run.
type RangeSource struct {
	Seed   int64
	Lo, Hi int
}

// Len implements ConfigSource.
func (s RangeSource) Len() int {
	if s.Hi <= s.Lo {
		return 0
	}
	return s.Hi - s.Lo
}

// At implements ConfigSource: position i maps to global index Lo+i.
func (s RangeSource) At(i int) params.Config { return params.ConfigAt(s.Seed, s.Lo+i) }

// Base returns the offset to add to an engine-local row index to recover
// the global index (the range's lower bound).
func (s RangeSource) Base() int { return s.Lo }
