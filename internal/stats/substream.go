package stats

import "math/rand"

// Deterministic RNG substreams. Every independently scheduled unit of work —
// a sampled configuration, a proposal pool, a forest's tree, a tree node's
// feature subsample, one permutation-importance shuffle — draws from its own
// splitmix64 substream derived from (seed, index) (Steele, Lea & Flood,
// "Fast Splittable Pseudorandom Number Generators", OOPSLA 2014). No unit
// replays a shared sequential stream, so results are identical at any worker
// count, fleet lease or resume point. The seed and the index are hashed
// separately and XOR-combined, so adjacent seeds and adjacent indices both
// yield uncorrelated streams rather than shifted copies of one another,
// which a plain state = seed + i*gamma jump would produce.

// Splitmix64 advances state by the golden-ratio increment and returns the
// mixed output.
func Splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SubSeed derives the substream seed for unit index of the stream
// identified by seed. The result is meant to be passed back in as a seed,
// so callers can chain derivations (e.g. SubSeed(SubSeed(seed, generation),
// strategy) for the adaptive search loop's per-(generation, strategy)
// candidate pools) and every level stays uncorrelated with its neighbours.
func SubSeed(seed int64, index int) int64 {
	ss := uint64(seed)
	// Offset the index so index 0 does not hash the all-zero state.
	is := uint64(index) + 0x6a09e667f3bcc909
	return int64(Splitmix64(&ss) ^ Splitmix64(&is))
}

// splitmixSource adapts the splitmix64 stream to math/rand.Source64.
type splitmixSource struct{ state uint64 }

func (s *splitmixSource) Uint64() uint64 { return Splitmix64(&s.state) }
func (s *splitmixSource) Int63() int64   { return int64(s.Uint64() >> 1) }
func (s *splitmixSource) Seed(int64)     {}

// NewRand returns the deterministic splitmix64 RNG whose state starts at
// seed; NewRand(SubSeed(seed, i)) is substream i of seed's stream.
func NewRand(seed int64) *rand.Rand {
	return rand.New(&splitmixSource{state: uint64(seed)})
}
