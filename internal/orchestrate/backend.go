package orchestrate

import (
	"fmt"

	"armdse/internal/params"
	"armdse/internal/simeng"
	"armdse/internal/sstmem"
)

// Memory-backend selection for single runs. cfg.Mem picks the memory
// model: the collection engine always simulates over the sstmem hierarchy it
// configures, Fidelity and DisablePrefetch included, and the Table I
// hardware reference is that hierarchy at High fidelity. A single run
// (dserun -mem, SimulateOn) may instead name the ideal flat memory, so the
// choice can ride a CLI flag without the callers importing the concrete
// packages.
const (
	// BackendSST is the study's default: the SST-like L1/L2/RAM hierarchy
	// at the fidelity cfg.Mem sets.
	BackendSST = "sst"
	// BackendFlat is an ideal fixed-latency memory (every access hits at
	// the configuration's L1 latency) — the reference for isolating
	// core-bound behaviour.
	BackendFlat = "flat"
)

// NewBackend builds a fresh instance of the named memory backend for a
// design-space point. An empty kind selects BackendSST, the study's
// default.
func NewBackend(kind string, cfg params.Config) (simeng.MemoryBackend, error) {
	mc := cfg.Mem
	switch kind {
	case "", BackendSST:
		h, err := sstmem.New(mc)
		if err != nil {
			return nil, err
		}
		return h, nil
	case BackendFlat:
		if mc.CoreClockGHz == 0 {
			mc.CoreClockGHz = sstmem.DefaultCoreClockGHz
		}
		if err := mc.Validate(); err != nil {
			return nil, err
		}
		m, err := simeng.NewFlatMem(mc.L1LatencyCore(), mc.CacheLineWidth, 0)
		if err != nil {
			return nil, err
		}
		return m, nil
	default:
		return nil, fmt.Errorf("orchestrate: unknown memory backend %q (want %s or %s)", kind, BackendSST, BackendFlat)
	}
}
