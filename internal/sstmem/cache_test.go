package sstmem

import (
	"math/rand"
	"testing"
	"unsafe"
)

// wayBytes is the host size of one pooled way.
const wayBytes = int(unsafe.Sizeof(way{}))

// hostBytes returns the host bytes the cache's way pool and set index hold.
func (c *cache) hostBytes() int { return cap(c.pool)*wayBytes + cap(c.index)*8 }

// TestWayKeepsDenseSize pins that the owner-set field fits the way's
// padding: a pooled way costs what a dense one did.
func TestWayKeepsDenseSize(t *testing.T) {
	if dense := int(unsafe.Sizeof(denseWay{})); wayBytes != dense {
		t.Errorf("way is %d B, dense way %d B", wayBytes, dense)
	}
}

// progReader hands out a cache program's bytes, then zeros.
type progReader struct {
	b []byte
	i int
}

func (r *progReader) more() bool { return r.i < len(r.b) }

func (r *progReader) next() byte {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return r.b[r.i-1]
}

// geometry decodes three bytes into a cache geometry: 16–256-B lines,
// 1–16 ways and 1–64 sets, or 1–16 lines in all for any associativity
// (the degenerate case capacity < assoc lines, and set counts the cache
// rounds down).
func (r *progReader) geometry() (capacity, assoc, lineBytes int) {
	lineBytes = 16 << (r.next() % 5)
	assoc = 1 << (r.next() % 5)
	c := r.next()
	lines := assoc << (c % 7)
	if c >= 0xe0 {
		lines = 1 + int(c&15)
	}
	return lines * lineBytes, assoc, lineBytes
}

// diffTally counts the geometry changes a cache program made.
type diffTally struct{ resets, shrinks, regrows int }

// diffCache runs the pooled cache and the dense oracle through the cache
// program prog and fails at the first step where their results differ. A
// program is three geometry bytes, then operations of an opcode byte and
// two address bytes each; a reset opcode reads three more geometry bytes.
// After every step the pooled cache's storage must stay within the dense
// layout's plus its set index.
func diffCache(t testing.TB, prog []byte) diffTally {
	r := &progReader{b: prog}
	capacity, assoc, lineBytes := r.geometry()
	pooled, dense := newCache(capacity, assoc, lineBytes), newDenseCache(capacity, assoc, lineBytes)
	maxWays, maxSets, prevWays := dense.Lines(), dense.sets, dense.Lines()
	var tally diffTally
	span := uint64(2*capacity/lineBytes + 1)
	for step := 0; r.more(); step++ {
		op := r.next()
		line := (uint64(r.next()) | uint64(r.next())<<8) % span
		addr := line*uint64(lineBytes) + uint64(op>>5)
		store := op&16 != 0
		ready := int64(step)*3 + 1
		switch kind := op % 16; {
		case kind < 5:
			ph, pr := pooled.lookup(addr, store)
			dh, dr := dense.lookup(addr, store)
			if ph != dh || pr != dr {
				t.Fatalf("step %d lookup(%#x, %v) = (%v, %d), dense (%v, %d)", step, addr, store, ph, pr, dh, dr)
			}
		case kind < 8:
			if p, d := pooled.present(addr), dense.present(addr); p != d {
				t.Fatalf("step %d present(%#x) = %v, dense %v", step, addr, p, d)
			}
		case kind < 13:
			pe, pd, pv := pooled.fill(addr, store, ready)
			de, dd, dv := dense.fill(addr, store, ready)
			if pe != de || pd != dd || pv != dv {
				t.Fatalf("step %d fill(%#x, %v) = (%#x, %v, %v), dense (%#x, %v, %v)",
					step, addr, store, pe, pd, pv, de, dd, dv)
			}
		case kind < 15:
			pooled.invalidate(addr)
			dense.invalidate(addr)
		default:
			capacity, assoc, lineBytes = r.geometry()
			pooled.reset(capacity, assoc, lineBytes)
			dense.reset(capacity, assoc, lineBytes)
			span = uint64(2*capacity/lineBytes + 1)
			tally.resets++
			switch ways := dense.Lines(); {
			case ways < prevWays:
				tally.shrinks++
			case ways > prevWays && ways <= maxWays:
				tally.regrows++
			}
			prevWays = dense.Lines()
			maxWays, maxSets = max(maxWays, dense.Lines()), max(maxSets, dense.sets)
		}
		if pooled.sets != dense.sets || pooled.assoc != dense.assoc || pooled.lineShift != dense.lineShift {
			t.Fatalf("step %d geometry %d×%d<<%d, dense %d×%d<<%d", step,
				pooled.sets, pooled.assoc, pooled.lineShift, dense.sets, dense.assoc, dense.lineShift)
		}
		if len(pooled.pool) > pooled.Lines() || cap(pooled.pool) > maxWays || cap(pooled.index) > maxSets {
			t.Fatalf("step %d storage: pool %d/%d ways, index cap %d; dense high-water %d ways, %d sets",
				step, len(pooled.pool), cap(pooled.pool), cap(pooled.index), maxWays, maxSets)
		}
	}
	for line := uint64(0); line < span; line++ {
		addr := line * uint64(lineBytes)
		if p, d := pooled.present(addr), dense.present(addr); p != d {
			t.Fatalf("final present(%#x) = %v, dense %v", addr, p, d)
		}
	}
	return tally
}

// randomCacheProg draws a cache program of n operations, about one in 64
// of them a reset.
func randomCacheProg(rng *rand.Rand, n int) []byte {
	prog := []byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
	for range n {
		op := byte(rng.Intn(15)) | byte(rng.Intn(16))<<4
		if rng.Intn(64) == 0 {
			op |= 15
			prog = append(prog, op, 0, 0, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
			continue
		}
		prog = append(prog, op, byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return prog
}

// TestCacheMatchesDense drives the pooled cache and the dense oracle with
// seeded random operation sequences over many geometries, including resets
// that shrink the geometry and then regrow it.
func TestCacheMatchesDense(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	var total diffTally
	for seed := range seeds {
		rng := rand.New(rand.NewSource(int64(seed)))
		tally := diffCache(t, randomCacheProg(rng, 500+rng.Intn(3000)))
		total.resets += tally.resets
		total.shrinks += tally.shrinks
		total.regrows += tally.regrows
	}
	t.Logf("%d resets: %d shrinks, %d regrows", total.resets, total.shrinks, total.regrows)
	if total.shrinks == 0 || total.regrows == 0 {
		t.Errorf("programs never shrank and regrew a geometry: %+v", total)
	}
}

// FuzzCache runs arbitrary cache programs (see diffCache) against the
// dense oracle. Its seed corpus is in testdata/fuzz/FuzzCache.
func FuzzCache(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		diffCache(t, prog)
	})
}

// TestCacheHostBytesWhenFull fills every way of small caches, forcing the
// pool to compact, and bounds what they retain by the dense layout plus 8
// B per set.
func TestCacheHostBytesWhenFull(t *testing.T) {
	for _, g := range []struct{ capacity, assoc, lineBytes int }{
		{8 << 10, 4, 64},
		{16 * 64, 16, 64}, // one set
		{5 * 16, 8, 16},   // degenerate: one set of five ways
		{64 << 10, 16, 16},
		{4 << 10, 1, 16},
	} {
		c := newCache(g.capacity, g.assoc, g.lineBytes)
		rng := rand.New(rand.NewSource(1))
		lines := c.Lines()
		for range 30 * lines {
			c.fill(uint64(rng.Intn(4*lines))*uint64(g.lineBytes), false, 0)
		}
		for set := range c.sets {
			if _, used := c.block(set); used != c.assoc {
				t.Fatalf("%+v: set %d used %d of %d ways", g, set, used, c.assoc)
			}
		}
		bound := lines*wayBytes + 8*c.sets
		if got := c.hostBytes(); got > bound {
			t.Errorf("%+v: %d B retained, bound %d B", g, got, bound)
		}
	}
}
