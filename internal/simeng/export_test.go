package simeng

import (
	"math/rand"

	"armdse/internal/isa"
)

// RandomCase exposes the property tests' program and configuration
// generators to the external golden harness: n instructions from the mixed
// or the divide-heavy mix, and a core configuration, all drawn from rng.
func RandomCase(rng *rand.Rand, n int, divideHeavy bool) ([]isa.Inst, Config) {
	groups := mixedGroups
	if divideHeavy {
		groups = divideGroups
	}
	return randomProgram(rng, n, groups), randomConfig(rng)
}
