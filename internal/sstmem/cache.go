package sstmem

import (
	"math/bits"
	"slices"
)

// cache is one set-associative, write-back, write-allocate cache level with
// LRU replacement. Tags are line addresses (byte address / line width); the
// structure is deliberately allocation-free per access.
//
// Host memory follows the lines a run fills, not the simulated capacity.
// Each set owns a block of ways in a shared pool. The block is allocated on
// the set's first fill and doubles (1, 2, 4, … assoc ways) as the set fills;
// an untouched set has no block, and a lookup in it misses at once. A fill
// takes the first invalid way, so the ways a set has never used always form
// a suffix of the set, and every scan stops at the set's used count. Block
// copies keep way order, so placement, LRU victims and back-invalidation
// holes are exactly those of a dense sets×assoc array.
type cache struct {
	sets      int
	assoc     int
	lineShift uint
	// index has one entry per set: the offset of the set's block in pool
	// (high 32 bits) and the number of ways the set has used (low 32
	// bits). Zero means the set has no block. Only the entries of sets
	// owning a block in pool are ever non-zero.
	index []uint64
	// pool holds the sets' blocks and the blocks they outgrew. Its length
	// never exceeds sets×assoc ways: growth that would pass that compacts
	// the pool first.
	pool []way
	// clock is a monotonically increasing use counter driving LRU.
	clock uint64
}

type way struct {
	tag  uint64
	used uint64
	// ready is the cycle the line's most recent fill completes; a hit
	// before then waits for the in-flight fill (the MSHR secondary-miss
	// path).
	ready int64
	// set is the set owning the block the way belongs to (it fits in the
	// struct's padding). reset and compact walk the pool by it.
	set   uint32
	valid bool
	dirty bool
}

// usedMask extracts a set's used-way count from its index entry.
const usedMask = 1<<32 - 1

// maxCacheLines bounds a level's line count so that pool offsets, used-way
// counts and set numbers fit their 32-bit fields.
const maxCacheLines = 1 << 31

// cacheGeometry returns the sets and ways modelled for a capacity in bytes,
// an associativity and a line width. Degenerate geometries (capacity <
// assoc lines) collapse to a single set of fewer ways rather than failing:
// the parameter sampler can produce tiny L1s. The set count is rounded down
// to a power of two for cheap indexing; Config.Validate rejects geometries
// that rounding would shrink.
func cacheGeometry(capacity, assoc, lineBytes int) (sets, ways int) {
	lines := max(capacity/lineBytes, 1)
	ways = min(assoc, lines)
	sets = max(lines/ways, 1)
	return 1 << (bits.Len(uint(sets)) - 1), ways
}

// newCache sizes a cache from capacity bytes, associativity and line width.
func newCache(capacity, assoc, lineBytes int) *cache {
	c := &cache{}
	c.reset(capacity, assoc, lineBytes)
	return c
}

// reset re-sizes the cache in place for a new geometry and invalidates every
// line. It zeroes only the index entries of the sets the last run touched
// and truncates the pool; both keep their backing arrays, so a pooled
// hierarchy allocates nothing once they reach their high-water marks.
func (c *cache) reset(capacity, assoc, lineBytes int) {
	for i := range c.pool {
		c.index[c.pool[i].set] = 0
	}
	c.pool = c.pool[:0]
	c.sets, c.assoc = cacheGeometry(capacity, assoc, lineBytes)
	c.lineShift = uint(bits.Len(uint(lineBytes - 1)))
	c.clock = 0
	if cap(c.index) >= c.sets {
		c.index = c.index[:c.sets]
	} else {
		c.index = make([]uint64, c.sets)
	}
}

// Lines returns the total line capacity.
func (c *cache) Lines() int { return c.sets * c.assoc }

// block returns the pool offset of set's block and the ways the set has
// used.
func (c *cache) block(set int) (off, used int) {
	e := c.index[set]
	return int(e >> 32), int(e & usedMask)
}

// setWays returns the ways the set holding line has used.
func (c *cache) setWays(line uint64) []way {
	off, used := c.block(int(line) & (c.sets - 1))
	return c.pool[off : off+used]
}

// blockWays returns the block size of a set that has used n > 0 ways.
func (c *cache) blockWays(n int) int {
	return min(1<<bits.Len(uint(n-1)), c.assoc)
}

// lookup probes for the line containing addr, updating LRU on hit. It
// returns whether it hit and, on a hit, the line's fill-ready cycle, and
// marks the line dirty if store.
func (c *cache) lookup(addr uint64, store bool) (hit bool, ready int64) {
	line := addr >> c.lineShift
	ws := c.setWays(line)
	c.clock++
	for i := range ws {
		w := &ws[i]
		if w.valid && w.tag == line {
			w.used = c.clock
			if store {
				w.dirty = true
			}
			return true, w.ready
		}
	}
	return false, 0
}

// present probes for the line without touching LRU or dirty state.
func (c *cache) present(addr uint64) bool {
	line := addr >> c.lineShift
	ws := c.setWays(line)
	for i := range ws {
		if ws[i].valid && ws[i].tag == line {
			return true
		}
	}
	return false
}

// fill inserts the line containing addr with fill-ready cycle ready, evicting
// LRU if needed. It returns the evicted line's first byte address and whether
// the victim was dirty (needing writeback); evicted is only meaningful when
// victimValid is true.
func (c *cache) fill(addr uint64, store bool, ready int64) (evicted uint64, dirty, victimValid bool) {
	line := addr >> c.lineShift
	set := int(line) & (c.sets - 1)
	ws := c.setWays(line)
	c.clock++
	hole, lru := -1, 0
	for i := range ws {
		w := &ws[i]
		if w.valid && w.tag == line {
			// Already present (e.g. racing prefetch): refresh.
			w.used = c.clock
			w.ready = ready
			if store {
				w.dirty = true
			}
			return 0, false, false
		}
		if !w.valid {
			hole = i
			break
		}
		if w.used < ws[lru].used {
			lru = i
		}
	}
	victim := lru
	switch {
	case hole >= 0:
		victim = hole
	case len(ws) < c.assoc:
		ws = c.grow(set)
		victim = len(ws) - 1
	}
	w := &ws[victim]
	victimValid = w.valid
	evicted = w.tag << c.lineShift
	dirty = w.valid && w.dirty
	w.tag = line
	w.valid = true
	w.dirty = store
	w.used = c.clock
	w.ready = ready
	return evicted, dirty, victimValid
}

// invalidate drops the line containing addr if present (used for inclusive
// back-invalidation on L2 eviction).
func (c *cache) invalidate(addr uint64) {
	line := addr >> c.lineShift
	ws := c.setWays(line)
	for i := range ws {
		w := &ws[i]
		if w.valid && w.tag == line {
			w.valid = false
			w.dirty = false
			return
		}
	}
}

// grow gives set its next never-used way and returns the set's used ways,
// the new one last. A full block is extended in place when it ends the
// pool, else copied, in way order, into a block of twice the size at the
// pool's end.
func (c *cache) grow(set int) []way {
	off, n := c.block(set)
	size := c.blockWays(n + 1)
	if n > 0 && size == c.blockWays(n) {
		// The block still has a never-used way.
		c.index[set]++
		return c.pool[off : off+n+1]
	}
	inPlace := n > 0 && off+n == len(c.pool)
	need := size
	if inPlace {
		need = size - n
	}
	total := c.sets * c.assoc
	if len(c.pool)+need > total {
		c.compact(set)
		off, inPlace, need = len(c.pool)-n, n > 0, size-n
	}
	start := len(c.pool)
	if start+need > cap(c.pool) {
		grown := make([]way, start, min(max(2*cap(c.pool), start+need), total))
		copy(grown, c.pool)
		c.pool = grown
	}
	c.pool = c.pool[:start+need]
	for i := start; i < len(c.pool); i++ {
		c.pool[i] = way{set: uint32(set)}
	}
	if !inPlace {
		copy(c.pool[start:], c.pool[off:off+n])
		off = start
	}
	c.index[set] = uint64(off)<<32 | uint64(n+1)
	return c.pool[off : off+n+1]
}

// compact drops the blocks that sets have outgrown, keeping the others in
// pool order, and then moves keep's block (if it has one) to the pool's
// end so it can grow in place. The sets' total block size never exceeds
// sets×assoc ways, so after compaction the growth fits.
func (c *cache) compact(keep int) {
	end := 0
	for p := 0; p < len(c.pool); {
		s := int(c.pool[p].set)
		off, n := c.block(s)
		if off != p {
			p++ // a way of an outgrown block
			continue
		}
		size := c.blockWays(n)
		copy(c.pool[end:], c.pool[p:p+size])
		c.index[s] = uint64(end)<<32 | uint64(n)
		end += size
		p += size
	}
	c.pool = c.pool[:end]
	off, n := c.block(keep)
	if n == 0 {
		return
	}
	// Rotate keep's block past the blocks after it.
	size := c.blockWays(n)
	tail := c.pool[off:]
	slices.Reverse(tail[:size])
	slices.Reverse(tail[size:])
	slices.Reverse(tail)
	for p := off; p < end-size; {
		s := int(c.pool[p].set)
		o, m := c.block(s)
		c.index[s] = uint64(o-size)<<32 | uint64(m)
		p += c.blockWays(m)
	}
	c.index[keep] = uint64(end-size)<<32 | uint64(n)
}
