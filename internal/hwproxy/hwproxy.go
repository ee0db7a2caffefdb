// Package hwproxy provides the "hardware" reference for the Table I
// validation. The paper compares SimEng+SST simulations against a physical
// Marvell ThunderX2 node; with no hardware available, this repo substitutes
// a higher-fidelity simulation of the same baseline — the ThunderX2 core
// model in front of a memory system with the features the paper says its SST
// setup abstracts away (finite banks, a stride prefetcher, a DRAM row-buffer
// model). The paper attributes its 6-37% Table I discrepancies to exactly
// that memory-backend simplification, so the substitution reproduces the
// mechanism of the error rather than its exact magnitudes (see DESIGN.md).
//
// # Fidelity contract
//
// Backend is the package's simeng.MemoryBackend implementation. It wraps
// sstmem.Hierarchy but pins Fidelity to High, whatever the caller's config
// says, and that is the whole point: sstmem.Hierarchy with Basic fidelity is
// the model under study (infinite banks, next-line prefetch, flat DRAM),
// while hwproxy.Backend is the reference it is validated against (finite
// banks, stride prefetch, row buffers). Code that asks for the proxy gets
// the reference behaviour unconditionally — it can never silently degrade
// into the model it is supposed to check. Everything else about the
// MemoryBackend contract (single consumer, non-decreasing access cycles,
// every latency computed at Access time) is inherited from sstmem.
package hwproxy

import (
	"armdse/internal/params"
	"armdse/internal/simeng"
	"armdse/internal/sstmem"
)

// Backend is the hardware-proxy memory backend: an sstmem hierarchy forced
// to High fidelity (see the fidelity contract in the package comment).
type Backend struct {
	*sstmem.Hierarchy
}

var _ simeng.MemoryBackend = (*Backend)(nil)

// NewBackend builds the proxy backend from cfg, overriding cfg.Fidelity
// with sstmem.High.
func NewBackend(cfg sstmem.Config) (*Backend, error) {
	cfg.Fidelity = sstmem.High
	h, err := sstmem.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Backend{Hierarchy: h}, nil
}

// Reset reconfigures the pooled backend in place for a new run, applying the
// same fidelity pin as NewBackend: whatever cfg says, the hierarchy runs at
// High fidelity. Without this override a pooled proxy reset through the
// generic sstmem path could silently degrade into the model under study.
func (b *Backend) Reset(cfg sstmem.Config) error {
	cfg.Fidelity = sstmem.High
	return b.Hierarchy.Reset(cfg)
}

// BaselineSim returns the study's simulation baseline: the ThunderX2 point
// with the Basic (SST-like) memory model.
func BaselineSim() params.Config {
	return params.ThunderX2()
}

// BaselineHW returns the hardware-proxy configuration: the same core with
// the High-fidelity memory model.
func BaselineHW() params.Config {
	cfg := params.ThunderX2()
	cfg.Mem.Fidelity = sstmem.High
	return cfg
}
