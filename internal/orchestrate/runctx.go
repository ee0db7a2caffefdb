package orchestrate

import (
	"armdse/internal/params"
	"armdse/internal/simeng"
	"armdse/internal/sstmem"
	"armdse/internal/workload"
)

// runContext is one worker's pooled simulation state: a core, a memory
// hierarchy and a stream cursor, all reset in place between runs so the
// worker stops allocating a fresh core, window, ring buffers, heaps and
// hierarchy per (config, app) pair. The hierarchy takes its whole model from
// cfg.Mem, so one instance serves every fidelity and prefetch setting a
// worker meets. A context is single-consumer; each engine worker goroutine
// owns exactly one and runs its jobs through it sequentially.
//
// Pooling is behaviour-neutral: Core.Reset and Hierarchy.Reset rebuild
// state exactly as the constructors would, and the differential tests pin
// that a pooled run is byte-identical to the same run on fresh objects.
type runContext struct {
	core   *simeng.Core
	mem    *sstmem.Hierarchy
	cursor workload.Cursor
	// tel/worker are the optional telemetry hub and this worker's shard
	// index; set by the engine after construction (nil tel = untelemetered).
	tel    *Telemetry
	worker int
}

func newRunContext() *runContext { return &runContext{} }

// simulate runs prog under the cycle budget on the pooled core and
// hierarchy, replaying it through the pooled cursor.
func (rc *runContext) simulate(cfg params.Config, prog *workload.Program, maxCycles int64) (simeng.Stats, error) {
	var err error
	if rc.mem == nil {
		rc.mem, err = sstmem.New(cfg.Mem)
	} else {
		err = rc.mem.Reset(cfg.Mem)
	}
	if err != nil {
		return simeng.Stats{}, err
	}
	rc.cursor.ResetTo(prog)
	if rc.core == nil {
		rc.tel.poolEvent(rc.worker, false)
		rc.core, err = simeng.New(cfg.Core, rc.mem)
	} else {
		rc.tel.poolEvent(rc.worker, true)
		err = rc.core.Reset(cfg.Core, rc.mem)
	}
	if err != nil {
		return simeng.Stats{}, err
	}
	return rc.core.RunLimit(&rc.cursor, maxCycles)
}
