package sstmem

// denseCache is the cache layout the pooled one replaced: a dense
// sets×assoc array of ways sized by the simulated capacity. It is kept as
// the oracle of the differential tests, which require the pooled cache to
// return exactly what it returns at every step.
type denseCache struct {
	sets      int
	assoc     int
	lineShift uint
	// ways is sets×assoc entries, row-major by set.
	ways []denseWay
	// clock is a monotonically increasing use counter driving LRU.
	clock uint64
}

type denseWay struct {
	tag  uint64
	used uint64
	// ready is the cycle the line's most recent fill completes; a hit
	// before then waits for the in-flight fill (the MSHR secondary-miss
	// path).
	ready int64
	valid bool
	dirty bool
}

// newDenseCache sizes a dense cache from capacity bytes, associativity and
// line width.
func newDenseCache(capacity, assoc, lineBytes int) *denseCache {
	c := &denseCache{}
	c.reset(capacity, assoc, lineBytes)
	return c
}

// reset re-sizes the cache in place for a new geometry and invalidates every
// line, reusing the ways array whenever its capacity suffices so a pooled
// hierarchy allocates nothing across same-or-smaller geometries.
func (c *denseCache) reset(capacity, assoc, lineBytes int) {
	lines := capacity / lineBytes
	if lines < 1 {
		lines = 1
	}
	if assoc > lines {
		assoc = lines
	}
	sets := lines / assoc
	if sets < 1 {
		sets = 1
	}
	// Round sets down to a power of two for cheap indexing.
	for sets&(sets-1) != 0 {
		sets &^= sets & -sets // clear lowest set bit
	}
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	c.sets = sets
	c.assoc = assoc
	c.lineShift = shift
	c.clock = 0
	n := sets * assoc
	if cap(c.ways) >= n {
		c.ways = c.ways[:n]
		clear(c.ways)
	} else {
		c.ways = make([]denseWay, n)
	}
}

// Lines returns the total line capacity.
func (c *denseCache) Lines() int { return c.sets * c.assoc }

// lookup probes for the line containing addr, updating LRU on hit. It
// returns whether it hit and, on a hit, the line's fill-ready cycle, and
// marks the line dirty if store.
func (c *denseCache) lookup(addr uint64, store bool) (hit bool, ready int64) {
	line := addr >> c.lineShift
	set := int(line) & (c.sets - 1)
	base := set * c.assoc
	c.clock++
	for i := 0; i < c.assoc; i++ {
		w := &c.ways[base+i]
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
func (c *denseCache) present(addr uint64) bool {
	line := addr >> c.lineShift
	set := int(line) & (c.sets - 1)
	base := set * c.assoc
	for i := 0; i < c.assoc; i++ {
		w := &c.ways[base+i]
		if w.valid && w.tag == line {
			return true
		}
	}
	return false
}

// fill inserts the line containing addr with fill-ready cycle ready, evicting
// LRU if needed. It returns the evicted line's first byte address and whether
// the victim was dirty (needing writeback); evicted is only meaningful when
// victimValid is true.
func (c *denseCache) fill(addr uint64, store bool, ready int64) (evicted uint64, dirty, victimValid bool) {
	line := addr >> c.lineShift
	set := int(line) & (c.sets - 1)
	base := set * c.assoc
	c.clock++
	victim := base
	for i := 0; i < c.assoc; i++ {
		w := &c.ways[base+i]
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
			victim = base + i
			break
		}
		if c.ways[victim].valid && w.used < c.ways[victim].used {
			victim = base + i
		}
	}
	w := &c.ways[victim]
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
func (c *denseCache) invalidate(addr uint64) {
	line := addr >> c.lineShift
	set := int(line) & (c.sets - 1)
	base := set * c.assoc
	for i := 0; i < c.assoc; i++ {
		w := &c.ways[base+i]
		if w.valid && w.tag == line {
			w.valid = false
			w.dirty = false
			return
		}
	}
}
