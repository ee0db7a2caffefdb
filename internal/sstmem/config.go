// Package sstmem models the study's SST memory backend: an L1 data cache and
// a unified L2 in front of RAM, with per-level clock domains, MSHR-limited
// misses, a basic next-line prefetcher, and — deliberately, following the
// paper's §IV-B discussion — an infinite number of memory banks in the
// default fidelity, so parallel vector line requests do not serialise.
//
// A high-fidelity mode adds the features the paper says SST abstracts away
// (finite banks, a stride prefetcher, a DRAM row-buffer model); Table I runs
// it as the "hardware" reference, selected by Config.Fidelity alone. One
// Hierarchy may be Reset between fidelities: every High-only path checks the
// configured fidelity, never the retained High-fidelity arrays.
package sstmem

import "fmt"

// Fidelity selects the memory-model detail level.
type Fidelity int

const (
	// Basic is the SST-like model used for the study's data collection:
	// next-line prefetch, infinite banks, flat DRAM latency.
	Basic Fidelity = iota
	// High adds finite banks, a stride prefetcher and a DRAM row-buffer
	// model; it stands in for real hardware in the Table I validation.
	High
)

// String returns the fidelity name.
func (f Fidelity) String() string {
	if f == High {
		return "high"
	}
	return "basic"
}

// Config is the Table III memory parameter set plus the fixed core clock.
// Latencies are expressed in cycles of the owning clock domain and scaled to
// core cycles internally.
type Config struct {
	// CacheLineWidth is the line size in bytes at every level. The paper
	// notes that increasing it also raises L1-L2 and L2-RAM bandwidth,
	// because each request has the same latency but moves more data.
	CacheLineWidth int
	// L1DSize is the L1 data cache capacity in bytes.
	L1DSize int
	// L1DAssoc is the L1D associativity.
	L1DAssoc int
	// L1DLatency is the L1D hit latency in L1-clock cycles.
	L1DLatency int
	// L1DClockGHz is the L1D clock domain.
	L1DClockGHz float64
	// L1DMSHRs bounds in-flight L1D misses.
	L1DMSHRs int
	// L2Size is the L2 capacity in bytes (constrained > L1DSize).
	L2Size int
	// L2Assoc is the L2 associativity.
	L2Assoc int
	// L2Latency is the L2 hit latency in L2-clock cycles (constrained
	// > L1DLatency).
	L2Latency int
	// L2ClockGHz is the L2 clock domain.
	L2ClockGHz float64
	// RAMLatencyNs is the main-memory access latency in nanoseconds.
	RAMLatencyNs float64
	// RAMBandwidthGBs is the main-memory bandwidth in GB/s.
	RAMBandwidthGBs float64

	// CoreClockGHz is the fixed core clock (2.5 GHz across the study).
	CoreClockGHz float64
	// Fidelity selects Basic (SST-like) or High (hardware-proxy).
	Fidelity Fidelity
	// DisablePrefetch turns the prefetcher off entirely. The study always
	// runs with SST's basic prefetching; this knob exists for the
	// extprefetch ablation experiment and is not part of the design
	// space.
	DisablePrefetch bool
}

// DefaultCoreClockGHz is the fixed core frequency of the study.
const DefaultCoreClockGHz = 2.5

// Validate checks the configuration for structural sanity and the paper's
// sampling constraints (L2 strictly larger and slower than L1).
func (c Config) Validate() error {
	if c.CacheLineWidth < 16 || c.CacheLineWidth > 1024 || c.CacheLineWidth&(c.CacheLineWidth-1) != 0 {
		return fmt.Errorf("sstmem: cache line width %d not a power of two in [16, 1024]", c.CacheLineWidth)
	}
	if c.L1DSize < c.CacheLineWidth {
		return fmt.Errorf("sstmem: L1D size %d smaller than a line", c.L1DSize)
	}
	if c.L1DAssoc < 1 {
		return fmt.Errorf("sstmem: L1D associativity %d < 1", c.L1DAssoc)
	}
	if err := validateGeometry("L1D", c.L1DSize, c.L1DAssoc, c.CacheLineWidth); err != nil {
		return err
	}
	if c.L1DLatency < 1 {
		return fmt.Errorf("sstmem: L1D latency %d < 1", c.L1DLatency)
	}
	if c.L1DClockGHz <= 0 || c.L2ClockGHz <= 0 || c.CoreClockGHz <= 0 {
		return fmt.Errorf("sstmem: non-positive clock in %+v", c)
	}
	if c.L1DMSHRs < 1 {
		return fmt.Errorf("sstmem: L1D MSHRs %d < 1", c.L1DMSHRs)
	}
	if c.L2Size <= c.L1DSize {
		return fmt.Errorf("sstmem: L2 size %d not larger than L1D size %d", c.L2Size, c.L1DSize)
	}
	if c.L2Assoc < 1 {
		return fmt.Errorf("sstmem: L2 associativity %d < 1", c.L2Assoc)
	}
	if err := validateGeometry("L2", c.L2Size, c.L2Assoc, c.CacheLineWidth); err != nil {
		return err
	}
	if c.L2Latency <= c.L1DLatency {
		return fmt.Errorf("sstmem: L2 latency %d not larger than L1D latency %d", c.L2Latency, c.L1DLatency)
	}
	if c.RAMLatencyNs <= 0 {
		return fmt.Errorf("sstmem: RAM latency %g ns", c.RAMLatencyNs)
	}
	if c.RAMBandwidthGBs <= 0 {
		return fmt.Errorf("sstmem: RAM bandwidth %g GB/s", c.RAMBandwidthGBs)
	}
	return nil
}

// validateGeometry rejects a cache level the model would not hold as
// specified: a size that is not a whole number of lines, or a set count
// (lines ÷ associativity) that is not a power of two, which the cache would
// silently round down.
func validateGeometry(level string, size, assoc, lineBytes int) error {
	lines := size / lineBytes
	if lines > maxCacheLines {
		return fmt.Errorf("sstmem: %s of %d lines exceeds the model's limit of %d", level, lines, maxCacheLines)
	}
	sets, ways := cacheGeometry(size, assoc, lineBytes)
	if size%lineBytes != 0 || sets*ways != lines {
		return fmt.Errorf("sstmem: %s of %d B (%d-way, %d-B lines) would model %d sets × %d ways = %d B; "+
			"size must be a whole number of lines and lines ÷ associativity a power of two",
			level, size, assoc, lineBytes, sets, ways, sets*ways*lineBytes)
	}
	return nil
}

// l1LatencyCore returns the L1 hit latency in core cycles.
func (c Config) l1LatencyCore() int64 {
	return scaleLatency(c.L1DLatency, c.CoreClockGHz, c.L1DClockGHz)
}

// L1LatencyCore returns the L1 hit latency scaled to core cycles — the
// uniform access time a flat (perfect-cache) backend derives from this
// configuration.
func (c Config) L1LatencyCore() int64 { return c.l1LatencyCore() }

// l2LatencyCore returns the L2 hit latency in core cycles.
func (c Config) l2LatencyCore() int64 {
	return scaleLatency(c.L2Latency, c.CoreClockGHz, c.L2ClockGHz)
}

// L2LatencyCore returns the L2 hit latency scaled to core cycles, as the
// hierarchy charges it. Exported for analytical models of this backend.
func (c Config) L2LatencyCore() int64 { return c.l2LatencyCore() }

// RAMLatencyCore returns the RAM access latency scaled to core cycles, as
// the hierarchy charges it.
func (c Config) RAMLatencyCore() int64 { return c.ramLatencyCore() }

// RAMIntervalCore returns the core-cycle spacing between successive RAM
// request starts: the channel sustains RAMBandwidthGBs of reference 64-byte
// requests, independent of line width (wider lines deliver more data per
// slot). Matches the hierarchy's internal pacing exactly.
func (c Config) RAMIntervalCore() float64 { return ramRefBytes / c.ramBytesPerCycle() }

// ramLatencyCore returns the RAM latency in core cycles.
func (c Config) ramLatencyCore() int64 {
	v := int64(c.RAMLatencyNs * c.CoreClockGHz)
	if v < 1 {
		v = 1
	}
	return v
}

// ramBytesPerCycle returns the RAM transfer rate in bytes per core cycle.
func (c Config) ramBytesPerCycle() float64 {
	return c.RAMBandwidthGBs / c.CoreClockGHz
}

// scaleLatency converts lat cycles of a domain clocked at domGHz into core
// cycles at coreGHz, rounding up and clamping to at least one cycle.
func scaleLatency(lat int, coreGHz, domGHz float64) int64 {
	v := int64(float64(lat)*coreGHz/domGHz + 0.999999)
	if v < 1 {
		v = 1
	}
	return v
}
