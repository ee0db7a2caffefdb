package orchestrate

import (
	"fmt"

	"armdse/internal/hwproxy"
	"armdse/internal/params"
	"armdse/internal/simeng"
	"armdse/internal/sstmem"
)

// Memory-backend selection. Every simulation in the pipeline runs a core
// against a simeng.MemoryBackend; which implementation is chosen by name so
// the selection can ride a CLI flag (dserun -mem=...) or an Engine field
// without the callers importing the concrete packages.
const (
	// BackendSST is the study's default: the SST-like L1/L2/RAM hierarchy.
	BackendSST = "sst"
	// BackendFlat is an ideal fixed-latency memory (every access hits at
	// the configuration's L1 latency) — the reference for isolating
	// core-bound behaviour.
	BackendFlat = "flat"
	// BackendProxy is the high-fidelity hardware-proxy model used as the
	// Table I "hardware" reference.
	BackendProxy = "proxy"
)

// Backends lists the selectable backend names.
func Backends() []string { return []string{BackendSST, BackendFlat, BackendProxy} }

// NewBackend builds a fresh instance of the named memory backend for a
// design-space point — an empty pool's first Get. An empty kind selects
// BackendSST, the study's default.
func NewBackend(kind string, cfg params.Config) (simeng.MemoryBackend, error) {
	return new(BackendPool).Get(kind, cfg)
}

// BackendPool reuses one memory backend per kind across runs. The first Get
// per kind builds the backend with its constructor; later calls reset the
// retained instance in place for cfg instead of building a new one, so a
// worker's hierarchy (cache ways, MSHR and bank arrays) is allocated once
// and reused for every run.
//
// A pool is single-consumer, like the backends it holds: each engine worker
// owns one.
type BackendPool struct {
	hier  *sstmem.Hierarchy
	flat  *simeng.FlatMem
	proxy *hwproxy.Backend
}

// Get returns the named backend reset for cfg (see NewBackend for the kind
// names; empty selects BackendSST).
func (p *BackendPool) Get(kind string, cfg params.Config) (simeng.MemoryBackend, error) {
	switch kind {
	case "", BackendSST:
		if p.hier == nil {
			h, err := sstmem.New(cfg.Mem)
			if err != nil {
				return nil, err
			}
			p.hier = h
			return h, nil
		}
		if err := p.hier.Reset(cfg.Mem); err != nil {
			return nil, err
		}
		return p.hier, nil
	case BackendFlat:
		mc := cfg.Mem
		if mc.CoreClockGHz == 0 {
			mc.CoreClockGHz = sstmem.DefaultCoreClockGHz
		}
		if err := mc.Validate(); err != nil {
			return nil, err
		}
		if p.flat == nil {
			m, err := simeng.NewFlatMem(mc.L1LatencyCore(), mc.CacheLineWidth, 0)
			if err != nil {
				return nil, err
			}
			p.flat = m
			return m, nil
		}
		if err := p.flat.Reset(mc.L1LatencyCore(), mc.CacheLineWidth, 0); err != nil {
			return nil, err
		}
		return p.flat, nil
	case BackendProxy:
		if p.proxy == nil {
			b, err := hwproxy.NewBackend(cfg.Mem)
			if err != nil {
				return nil, err
			}
			p.proxy = b
			return b, nil
		}
		if err := p.proxy.Reset(cfg.Mem); err != nil {
			return nil, err
		}
		return p.proxy, nil
	default:
		return nil, fmt.Errorf("orchestrate: unknown memory backend %q (want one of %v)", kind, Backends())
	}
}
