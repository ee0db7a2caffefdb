package params

import (
	"fmt"
	"math/rand"
)

// Scale describes how a parameter's discrete values are spaced.
type Scale uint8

const (
	// Linear parameters take Min, Min+Step, ..., Max.
	Linear Scale = iota
	// Pow2 parameters take the powers of two in [Min, Max].
	Pow2
)

// Param is one dimension of the design space.
type Param struct {
	// Name matches the canonical feature name.
	Name string
	// Min and Max are the inclusive value bounds.
	Min, Max float64
	// Step is the linear spacing (ignored for Pow2).
	Step float64
	// Scale selects linear or power-of-two spacing.
	Scale Scale
}

// Values enumerates the parameter's discrete values.
func (p Param) Values() []float64 {
	var out []float64
	if p.Scale == Pow2 {
		for v := p.Min; v <= p.Max; v *= 2 {
			out = append(out, v)
		}
		return out
	}
	for v := p.Min; v <= p.Max+1e-9; v += p.Step {
		out = append(out, v)
	}
	return out
}

// sampleAbove draws one value uniformly from the ascending value list vals,
// restricted to values >= lo (for the paper's dependent lower bounds) and
// > strictAbove when nonnegative. Both bounds keep a suffix of vals, so the
// draw indexes that suffix in place: the same rng call, and the same value,
// as drawing from a filtered copy, without building one.
func sampleAbove(rng *rand.Rand, vals []float64, lo, strictAbove float64) float64 {
	j := 0
	for j < len(vals) && !(vals[j] >= lo && vals[j] > strictAbove) {
		j++
	}
	if j == len(vals) {
		// The constraint excludes everything; fall back to the maximum.
		return vals[len(vals)-1]
	}
	return vals[j+rng.Intn(len(vals)-j)]
}

// valueTables holds every parameter's ascending value list in canonical
// feature order, built once so Sample allocates nothing.
var valueTables = func() (t [NumFeatures][]float64) {
	for i, p := range Space() {
		t[i] = p.Values()
	}
	return t
}()

// Space returns the full 30-parameter design space in canonical feature
// order: Table II (18 core parameters) followed by the reconstructed
// Table III (12 memory parameters).
func Space() []Param {
	return []Param{
		{Name: "Vector-Length", Min: 128, Max: 2048, Scale: Pow2},
		{Name: "Fetch-Block-Size", Min: 4, Max: 2048, Scale: Pow2},
		{Name: "Loop-Buffer-Size", Min: 1, Max: 512, Step: 1},
		{Name: "GP-Registers", Min: 40, Max: 512, Step: 8},
		{Name: "FP-SVE-Registers", Min: 40, Max: 512, Step: 8},
		{Name: "Predicate-Registers", Min: 24, Max: 512, Step: 8},
		{Name: "Conditional-Registers", Min: 8, Max: 512, Step: 8},
		{Name: "Commit-Width", Min: 1, Max: 64, Step: 1},
		{Name: "Frontend-Width", Min: 1, Max: 64, Step: 1},
		{Name: "LSQ-Completion-Width", Min: 1, Max: 64, Step: 1},
		{Name: "ROB-Size", Min: 8, Max: 512, Step: 4},
		{Name: "Load-Queue-Size", Min: 4, Max: 512, Step: 4},
		{Name: "Store-Queue-Size", Min: 4, Max: 512, Step: 4},
		{Name: "Load-Bandwidth", Min: 16, Max: 1024, Scale: Pow2},
		{Name: "Store-Bandwidth", Min: 16, Max: 1024, Scale: Pow2},
		{Name: "Mem-Requests-Per-Cycle", Min: 1, Max: 32, Step: 1},
		{Name: "Mem-Loads-Per-Cycle", Min: 1, Max: 32, Step: 1},
		{Name: "Mem-Stores-Per-Cycle", Min: 1, Max: 32, Step: 1},
		{Name: "Cache-Line-Width", Min: 16, Max: 256, Scale: Pow2},
		{Name: "L1-Size", Min: 4 << 10, Max: 256 << 10, Scale: Pow2},
		{Name: "L1-Assoc", Min: 1, Max: 16, Scale: Pow2},
		{Name: "L1-Latency", Min: 1, Max: 8, Step: 1},
		{Name: "L1-Clock", Min: 1.0, Max: 4.0, Step: 0.25},
		{Name: "L1-MSHRs", Min: 4, Max: 32, Step: 1},
		{Name: "L2-Size", Min: 64 << 10, Max: 16 << 20, Scale: Pow2},
		{Name: "L2-Assoc", Min: 1, Max: 16, Scale: Pow2},
		{Name: "L2-Latency", Min: 4, Max: 64, Step: 2},
		{Name: "L2-Clock", Min: 1.0, Max: 4.0, Step: 0.25},
		{Name: "RAM-Latency", Min: 20, Max: 200, Step: 5},
		{Name: "RAM-Bandwidth", Min: 50, Max: 1000, Step: 25},
	}
}

// SpaceByName returns the space indexed by feature name.
func SpaceByName() map[string]Param {
	m := make(map[string]Param, NumFeatures)
	for _, p := range Space() {
		m[p.Name] = p
	}
	return m
}

// Sample draws one configuration uniformly from the design space under the
// paper's constraints: Load/Store bandwidth at least one vector of bytes,
// L2 size strictly above L1 size, L2 latency strictly above L1 latency. The
// result always validates.
func Sample(rng *rand.Rand) Config {
	var f [NumFeatures]float64
	// Independent draws first.
	for i := range f {
		f[i] = sampleAbove(rng, valueTables[i], 0, -1)
	}
	// Dependent lower bounds (§V-A).
	vecBytes := f[FVectorLength] / 8
	f[FLoadBandwidth] = sampleAbove(rng, valueTables[FLoadBandwidth], vecBytes, -1)
	f[FStoreBandwidth] = sampleAbove(rng, valueTables[FStoreBandwidth], vecBytes, -1)
	f[FL2Size] = sampleAbove(rng, valueTables[FL2Size], 0, f[FL1DSize])
	f[FL2Latency] = sampleAbove(rng, valueTables[FL2Latency], 0, f[FL1DLatency])
	cfg, err := FromFeatures(f[:])
	if err != nil {
		panic(fmt.Sprintf("params: internal sampling error: %v", err))
	}
	return cfg
}

// SampleN draws n configurations deterministically from seed. Each entry is
// derived independently per index (see ConfigAt), so SampleN(seed, n)[i] ==
// ConfigAt(seed, i) and extending n preserves the existing prefix.
func SampleN(seed int64, n int) []Config {
	out := make([]Config, n)
	for i := range out {
		out[i] = ConfigAt(seed, i)
	}
	return out
}
