package params

import "math/rand"

// Indexed configuration derivation. The collection engine identifies every
// design-space point by a global index i in [0, Samples); ConfigAt derives
// configuration i directly from (seed, i) without replaying a shared RNG
// stream through configurations 0..i-1. That independence is what makes the
// collected dataset identical regardless of worker count, fleet lease,
// or resume point: any subset of indices can be produced anywhere, in any
// order, and still agree byte-for-byte with a sequential run.
//
// Each index gets its own splitmix64 substream (Steele, Lea & Flood, "Fast
// Splittable Pseudorandom Number Generators", OOPSLA 2014). The seed and the
// index are hashed separately and XOR-combined, so adjacent seeds and
// adjacent indices both yield uncorrelated streams — in particular the
// substreams are not shifted copies of one another, which a plain
// state = seed + i*gamma jump would produce.

// splitmix64 advances state by the golden-ratio increment and returns the
// mixed output.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// splitmixSource adapts the splitmix64 stream to math/rand.Source64.
type splitmixSource struct{ state uint64 }

func (s *splitmixSource) Uint64() uint64 { return splitmix64(&s.state) }
func (s *splitmixSource) Int63() int64   { return int64(s.Uint64() >> 1) }
func (s *splitmixSource) Seed(int64)     {}

// SubSeed derives the substream seed for unit index of the stream
// identified by seed — the derivation ConfigAt uses per configuration
// index. The result is meant to be passed back in as a seed, so callers
// can chain derivations (e.g. SubSeed(SubSeed(seed, generation), strategy)
// for the adaptive search loop's per-(generation, strategy) candidate
// pools) and every level stays uncorrelated with its neighbours.
func SubSeed(seed int64, index int) int64 {
	ss := uint64(seed)
	// Offset the index so index 0 does not hash the all-zero state.
	is := uint64(index) + 0x6a09e667f3bcc909
	return int64(splitmix64(&ss) ^ splitmix64(&is))
}

// NewRand returns the deterministic splitmix64 RNG seeded with the given
// substream state; indexedRand(seed, i) == NewRand(SubSeed(seed, i)).
func NewRand(seed int64) *rand.Rand {
	return rand.New(&splitmixSource{state: uint64(seed)})
}

// indexedRand returns the RNG for substream index of the stream identified
// by seed.
func indexedRand(seed int64, index int) *rand.Rand {
	return NewRand(SubSeed(seed, index))
}

// ConfigAt derives the index-th configuration of the sampling stream
// identified by seed, in O(1) — without materialising configurations
// 0..index-1. SampleN(seed, n)[i] == ConfigAt(seed, i) for all i < n.
func ConfigAt(seed int64, index int) Config {
	return Sample(indexedRand(seed, index))
}
