package simeng

import "armdse/internal/isa"

// dispatchStage admits renamed instructions to the reorder buffer, allocating
// their ROB/RS/LQ/SQ slots and subscribing unresolved sources to their
// producers' wake lists. A full structure stops dispatch for the cycle; which
// one is posted to the stall bus (and counted per-instruction in Stats).
func (c *Core) dispatchStage() {
	for n := 0; n < isa.DispatchRate && c.seqDispatched < c.seqRenamed; n++ {
		if c.seqDispatched-c.seqCommitted >= c.cp {
			c.stats.ROBStalls++
			c.bus.robFull = true
			return
		}
		if c.issue.rsCount >= isa.ReservationStationSize {
			c.stats.RSStalls++
			c.bus.rsFull = true
			return
		}
		seq := c.seqDispatched
		e := &c.window[seq&c.wmask]
		switch e.op {
		case isa.Load:
			if c.lsq.lqCount >= c.cfg.LoadQueueSize {
				c.stats.LQStalls++
				c.bus.lqFull = true
				return
			}
		case isa.Store:
			if c.lsq.sqCount >= c.cfg.StoreQueueSize {
				c.stats.SQStalls++
				c.bus.sqFull = true
				return
			}
		}
		c.seqDispatched++
		// Rename stored the instruction's own fields in the slot; these
		// are the scheduling fields.
		e.resultAt = doneNever
		e.memDone = 0
		e.earliestReady = 0
		e.dispatchedAt = c.cycle
		e.issuedAt = -1
		e.wakeHead = -1
		e.state = stInRS
		e.pendingSrcs = 0
		// Resolve sources now or subscribe to their producers. wakeNext[i]
		// holds source i's producer until it becomes the slot's link.
		for i := 0; i < int(e.ns); i++ {
			s := e.wakeNext[i]
			e.wakeNext[i] = -1
			if s < 0 || s < c.seqCommitted {
				continue // architectural or committed: ready
			}
			p := &c.window[s&c.wmask]
			if p.resultAt != doneNever {
				if p.resultAt > e.earliestReady {
					e.earliestReady = p.resultAt
				}
				continue
			}
			// Producer completion unknown: link a wake node.
			e.wakeNext[i] = p.wakeHead
			p.wakeHead = seq*4 + int64(i)
			e.pendingSrcs++
		}
		if e.pendingSrcs == 0 {
			c.markReady(seq, e)
		}
		switch e.op {
		case isa.Load:
			c.lsq.lqCount++
		case isa.Store:
			c.lsq.sqCount++
		}
		c.issue.rsCount++
		c.progress = true
	}
}
