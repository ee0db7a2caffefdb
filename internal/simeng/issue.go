package simeng

import (
	"math/bits"

	"armdse/internal/isa"
)

// issueUnit is the scheduler stage component: the reservation station,
// wakeup/select machinery and the execution ports.
type issueUnit struct {
	// rsCount is the reservation-station occupancy (dispatched, not yet
	// issued). Ready entries are tracked event-style: when an entry's
	// last source resolves at a future cycle t it enters readyWheel's
	// slot t%wheelSize, and issueStage moves cycle t's slot into
	// readyList (sorted by age) where entries wait only for ports — no
	// per-cycle RS scan. readyMask marks the non-empty slots.
	rsCount    int
	readyWheel [wheelSize][]int64
	readyMask  uint64
	readyList  []int64
	// freeAt[p] is the cycle port p is free again after a non-pipelined
	// (divide) issue; busy marks the ports such an issue still holds.
	// Every other issue frees its port the next cycle, so allPorts&^busy
	// is the free set without a per-port scan.
	freeAt   []int64
	busy     uint64
	allPorts uint64
	// groupPorts[g] is the bitmask of ports accepting group g, so port
	// selection is one AND + trailing-zeros instead of a per-port
	// GroupSet.Has scan. Bit order is port index order, which keeps the
	// lowest-set-bit pick identical to the original first-match scan.
	groupPorts [isa.NumGroups]uint64
}

// reset re-initialises the unit for a new run, reusing the port table and
// the ready wheel/list backing arrays.
func (u *issueUnit) reset(cfg Config) {
	u.rsCount = 0
	for i := range u.readyWheel {
		u.readyWheel[i] = u.readyWheel[i][:0]
	}
	u.readyMask = 0
	u.readyList = u.readyList[:0]
	ports := cfg.EffectivePorts()
	if cap(u.freeAt) >= len(ports) {
		u.freeAt = u.freeAt[:len(ports)]
	} else {
		u.freeAt = make([]int64, len(ports))
	}
	u.busy = 0
	u.allPorts = 1<<len(ports) - 1
	u.groupPorts = [isa.NumGroups]uint64{}
	for i, p := range ports {
		for g := isa.Group(0); g < isa.NumGroups; g++ {
			if p.Accept.Has(g) {
				u.groupPorts[g] |= 1 << i
			}
		}
	}
}

// resolveWaiters publishes e's completion time to every consumer on its
// wake list. Called exactly once per entry, when resultAt becomes known.
func (c *Core) resolveWaiters(e *entry, at int64) {
	n := e.wakeHead
	e.wakeHead = -1
	for n >= 0 {
		cseq := n >> 2
		cons := &c.window[cseq&c.wmask]
		slot := n & 3
		n = cons.wakeNext[slot]
		cons.wakeNext[slot] = -1
		if at > cons.earliestReady {
			cons.earliestReady = at
		}
		cons.pendingSrcs--
		if cons.pendingSrcs == 0 {
			c.markReady(cseq, cons)
		}
	}
}

// markReady enqueues a fully-resolved entry for issue at its ready cycle.
//
// Entries ready now bypass the wheel and insert straight into the age-ordered
// ready list — equivalent to the wheel round-trip because the list's content
// at selection time is the same sorted set either way: callers that run
// before issueStage in a step (memoryStage completions) make the entry
// selectable this cycle through both paths, callers that run after it
// (dispatch) make it selectable next cycle through both paths, and
// issueStage's own resolveWaiters calls always yield future ready times
// (resultAt >= cycle+1), so the list is never extended mid-selection.
func (c *Core) markReady(seq int64, e *entry) {
	at := e.earliestReady
	u := &c.issue
	if at <= c.cycle {
		u.insertReady(seq)
		return
	}
	// The ready time is not posted to the events wheel: the idle skipper
	// reads readyMask as well.
	slot := at & (wheelSize - 1)
	u.readyWheel[slot] = append(u.readyWheel[slot], seq)
	u.readyMask |= 1 << slot
}

// insertReady adds seq to the ready list, keeping it sorted by age.
func (u *issueUnit) insertReady(seq int64) {
	i := len(u.readyList)
	u.readyList = append(u.readyList, seq)
	for i > 0 && u.readyList[i-1] > seq {
		u.readyList[i] = u.readyList[i-1]
		i--
	}
	u.readyList[i] = seq
}

// issueStage selects ready instructions onto free execution ports, oldest
// first. Ready instructions left over after selection could only have been
// blocked by port availability, which is posted to the stall bus.
func (c *Core) issueStage() {
	u := &c.issue
	// Pull entries ready this cycle into the age-ordered ready list. The
	// core visits every cycle that has a wheel slot set, so the slot holds
	// only this cycle's entries.
	if slot := c.cycle & (wheelSize - 1); u.readyMask&(1<<slot) != 0 {
		for _, seq := range u.readyWheel[slot] {
			u.insertReady(seq)
		}
		u.readyWheel[slot] = u.readyWheel[slot][:0]
		u.readyMask &^= 1 << slot
	}
	if len(u.readyList) == 0 {
		return
	}
	issued := 0
	for m := u.busy; m != 0; m &= m - 1 {
		if p := bits.TrailingZeros64(m); u.freeAt[p] <= c.cycle {
			u.busy &^= 1 << p
		}
	}
	// free is the bitmask of ports idle this cycle; issuing onto a port
	// always occupies it past this cycle, so the mask only loses bits
	// within the loop. Selection picks the lowest free accepting port —
	// identical to the original first-match index scan.
	free := u.allPorts &^ u.busy
	for i := 0; i < len(u.readyList); i++ {
		seq := u.readyList[i]
		e := &c.window[seq&c.wmask]
		m := free & u.groupPorts[e.op]
		if m == 0 {
			continue
		}
		port := bits.TrailingZeros64(m)
		free &^= 1 << port
		if !e.op.Pipelined() {
			u.freeAt[port] = c.cycle + int64(e.op.Latency())
			u.busy |= 1 << port
		}
		c.stats.PortIssued[port]++
		e.issuedAt = c.cycle
		switch e.op {
		case isa.Load:
			// Address generation this cycle; line requests from next.
			e.state = stLoadAGU
			c.lsq.loadReqQ.Push(loadReq{seq: seq, availableAt: c.cycle + 1})
			c.postEvent(c.cycle + 1)
		case isa.Store:
			// Address and data captured; the write drains post-commit.
			e.state = stExec
			e.resultAt = c.cycle + 1
			c.postEvent(e.resultAt)
			c.resolveWaiters(e, e.resultAt)
		default:
			e.state = stExec
			e.resultAt = c.cycle + int64(e.op.Latency())
			c.postEvent(e.resultAt)
			c.resolveWaiters(e, e.resultAt)
		}
		u.readyList[i] = -1
		u.rsCount--
		issued++
		c.progress = true
	}
	if issued > 0 {
		kept := u.readyList[:0]
		for _, seq := range u.readyList {
			if seq >= 0 {
				kept = append(kept, seq)
			}
		}
		u.readyList = kept
	}
	if len(u.readyList) > 0 {
		// Everything still in the list was ready this cycle (the wheel only
		// releases due entries) and found no accepting free port.
		c.bus.portBlocked = true
	}
}
