package params

import "armdse/internal/stats"

// Indexed configuration derivation. The collection engine identifies every
// design-space point by a global index i in [0, Samples); ConfigAt derives
// configuration i directly from (seed, i) without replaying a shared RNG
// stream through configurations 0..i-1. That independence is what makes the
// collected dataset identical regardless of worker count, fleet lease,
// or resume point: any subset of indices can be produced anywhere, in any
// order, and still agree byte-for-byte with a sequential run. Each index
// draws from its own splitmix64 substream (stats.SubSeed, stats.NewRand).

// ConfigAt derives the index-th configuration of the sampling stream
// identified by seed, in O(1) — without materialising configurations
// 0..index-1. SampleN(seed, n)[i] == ConfigAt(seed, i) for all i < n.
func ConfigAt(seed int64, index int) Config {
	return Sample(stats.NewRand(stats.SubSeed(seed, index)))
}
