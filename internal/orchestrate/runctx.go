package orchestrate

import (
	"armdse/internal/params"
	"armdse/internal/simeng"
	"armdse/internal/workload"
)

// runContext is one worker's pooled simulation state: a core, a backend per
// kind, and a stream cursor, all reset in place between runs so the worker
// stops allocating a fresh core, window, ring buffers, heaps and hierarchy
// per (config, app) pair. A context is single-consumer; each engine worker
// goroutine owns exactly one and runs its jobs through it sequentially.
//
// Pooling is behaviour-neutral: Core.Reset and the backend Resets rebuild
// state exactly as the constructors would, and the differential tests pin
// that a pooled run is byte-identical to the same run on fresh objects.
type runContext struct {
	core   *simeng.Core
	pool   BackendPool
	cursor workload.Cursor
	// tel/worker are the optional telemetry hub and this worker's shard
	// index; set by the engine after construction (nil tel = untelemetered).
	tel    *Telemetry
	worker int
}

func newRunContext() *runContext { return &runContext{} }

// simulate runs prog under the cycle budget on the pooled core and backend,
// replaying it through the pooled cursor.
func (rc *runContext) simulate(backend string, cfg params.Config, prog *workload.Program, maxCycles int64) (simeng.Stats, error) {
	mem, err := rc.pool.Get(backend, cfg)
	if err != nil {
		return simeng.Stats{}, err
	}
	rc.cursor.ResetTo(prog)
	if rc.core == nil {
		rc.tel.poolEvent(rc.worker, false)
		rc.core, err = simeng.New(cfg.Core, mem)
	} else {
		rc.tel.poolEvent(rc.worker, true)
		err = rc.core.Reset(cfg.Core, mem)
	}
	if err != nil {
		return simeng.Stats{}, err
	}
	return rc.core.RunLimit(&rc.cursor, maxCycles)
}
