package orchestrate

import (
	"fmt"

	"armdse/internal/params"
	"armdse/internal/simeng"
	"armdse/internal/sstmem"
)

// Memory-backend selection for single runs. The collection engine always
// simulates over an sstmem hierarchy that cfg.Mem configures, its Fidelity
// and DisablePrefetch included; a single run (dserun -mem, SimulateOn) may
// instead name its backend, so the choice can ride a CLI flag without the
// callers importing the concrete packages.
const (
	// BackendSST is the study's default: the SST-like L1/L2/RAM hierarchy
	// at the fidelity cfg.Mem sets.
	BackendSST = "sst"
	// BackendFlat is an ideal fixed-latency memory (every access hits at
	// the configuration's L1 latency) — the reference for isolating
	// core-bound behaviour.
	BackendFlat = "flat"
	// BackendProxy is the hardware proxy of Table I: the hierarchy at High
	// fidelity, whatever cfg.Mem.Fidelity says, so a proxy run can never
	// silently use the model it is meant to check.
	BackendProxy = "proxy"
)

// Backends lists the selectable backend names.
func Backends() []string { return []string{BackendSST, BackendFlat, BackendProxy} }

// NewBackend builds a fresh instance of the named memory backend for a
// design-space point. An empty kind selects BackendSST, the study's
// default.
func NewBackend(kind string, cfg params.Config) (simeng.MemoryBackend, error) {
	mc := cfg.Mem
	switch kind {
	case "", BackendSST, BackendProxy:
		if kind == BackendProxy {
			mc.Fidelity = sstmem.High
		}
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
		return nil, fmt.Errorf("orchestrate: unknown memory backend %q (want one of %v)", kind, Backends())
	}
}
