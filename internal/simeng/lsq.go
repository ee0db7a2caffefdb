package simeng

// lsqUnit is the load/store queue stage component. It owns the in-flight
// load request queue, the post-commit store drain queue, the load completion
// heap and the per-cycle byte-bandwidth credits; the backend seam
// (MemoryBackend.Access) is crossed only from this unit.
type lsqUnit struct {
	loadReqQ    ring[loadReq]
	storeWriteQ ring[storeWrite]
	loadHeap    seqHeap

	lqCount, sqCount int

	// Byte-bandwidth credits persist across cycles (capped at one cycle's
	// allowance) so accesses wider than the per-cycle bandwidth drain
	// over multiple cycles instead of wedging.
	loadCredit   int64
	storeCredit  int64
	lastMemCycle int64
}

// loadReq is a load whose address generation completes at availableAt.
type loadReq struct {
	seq         int64
	availableAt int64
}

// storeWrite is a committed store draining to memory.
type storeWrite struct {
	nextLine  uint64
	startAddr uint64
	endAddr   uint64
}

// reset re-initialises the unit for a new run, reusing the queue buffers
// and the load-completion heap.
func (u *lsqUnit) reset(cfg Config) {
	u.loadReqQ.reset(cfg.LoadQueueSize)
	u.storeWriteQ.reset(cfg.StoreQueueSize)
	u.loadHeap.reset()
	u.lqCount, u.sqCount = 0, 0
	u.loadCredit, u.storeCredit = 0, 0
	u.lastMemCycle = 0
}

// memoryStage writes back returned load data, splits pending loads and
// committed stores into line requests against the backend under the
// per-cycle request/kind/byte budgets, and posts budget exhaustion to the
// stall bus (mem-bw).
func (c *Core) memoryStage() {
	completions := c.cfg.LSQCompletionWidth
	requests := c.cfg.MemRequestsPerCycle
	loadOps := c.cfg.MemLoadsPerCycle
	storeOps := c.cfg.MemStoresPerCycle

	// Replenish bandwidth credits for the cycles elapsed since the last
	// visit, capped at one cycle's allowance.
	delta := c.cycle - c.lsq.lastMemCycle
	if delta < 1 {
		delta = 1
	}
	c.lsq.lastMemCycle = c.cycle
	c.lsq.loadCredit += delta * int64(c.cfg.LoadBandwidth)
	if c.lsq.loadCredit > int64(c.cfg.LoadBandwidth) {
		c.lsq.loadCredit = int64(c.cfg.LoadBandwidth)
	}
	c.lsq.storeCredit += delta * int64(c.cfg.StoreBandwidth)
	if c.lsq.storeCredit > int64(c.cfg.StoreBandwidth) {
		c.lsq.storeCredit = int64(c.cfg.StoreBandwidth)
	}

	// Load writebacks: data that has returned claims LSQ completion slots.
	for completions > 0 && c.lsq.loadHeap.Len() > 0 && c.lsq.loadHeap.Min().at <= c.cycle {
		ev := c.lsq.loadHeap.Pop()
		e := &c.window[ev.seq&c.wmask]
		e.resultAt = c.cycle
		e.state = stExec
		c.resolveWaiters(e, c.cycle)
		completions--
		c.progress = true
	}

	// Load line requests: head-of-queue loads split into per-line requests
	// under the request/kind/byte budgets.
	for !c.lsq.loadReqQ.Empty() {
		lr := c.lsq.loadReqQ.Peek()
		if lr.availableAt > c.cycle {
			break
		}
		e := &c.window[lr.seq&c.wmask]
		blocked := false
		for e.nextLine < e.endAddr {
			lineStart := e.nextLine &^ (c.lineBytes - 1)
			portion := int64(min(e.endAddr, lineStart+c.lineBytes) - e.nextLine)
			// The per-cycle request/load limits are per memory
			// *instruction* (the paper's SST backend fetches a wide
			// vector's lines from parallel banks); only the byte
			// bandwidth meters the individual lines.
			if e.nextLine == e.addr && (requests < 1 || loadOps < 1) {
				blocked = true
				break
			}
			if c.lsq.loadCredit < 1 {
				blocked = true
				break
			}
			if e.nextLine == e.addr {
				requests--
				loadOps--
			}
			done := c.mem.Access(c.cycle, e.nextLine, false)
			if done > e.memDone {
				e.memDone = done
			}
			c.lsq.loadCredit -= portion
			c.stats.MemRequests++
			e.nextLine = lineStart + c.lineBytes
			c.progress = true
		}
		if blocked {
			// Budget-blocked with work pending: the budgets refresh next
			// cycle, so the idle skipper must not jump past it.
			c.bus.memBWBlocked = true
			c.postEvent(c.cycle + 1)
			break
		}
		// memDone is not posted to the events wheel: a data return can
		// lie hundreds of cycles ahead, past the wheel's horizon, so the
		// idle skipper consults loadHeap.Min directly.
		e.state = stLoadMem
		c.lsq.loadHeap.Push(seqEvent{at: e.memDone, seq: lr.seq})
		c.lsq.loadReqQ.Drop()
		c.progress = true
	}

	// Committed store writes drain through the remaining budgets; each
	// fully-issued store claims one LSQ completion slot and frees its SQ
	// entry.
	for completions > 0 && !c.lsq.storeWriteQ.Empty() {
		sw := c.lsq.storeWriteQ.Peek()
		blocked := false
		for sw.nextLine < sw.endAddr {
			lineStart := sw.nextLine &^ (c.lineBytes - 1)
			portion := int64(min(sw.endAddr, lineStart+c.lineBytes) - sw.nextLine)
			if sw.nextLine == sw.startAddr && (requests < 1 || storeOps < 1) {
				blocked = true
				break
			}
			if c.lsq.storeCredit < 1 {
				blocked = true
				break
			}
			if sw.nextLine == sw.startAddr {
				requests--
				storeOps--
			}
			c.mem.Access(c.cycle, sw.nextLine, true)
			c.lsq.storeCredit -= portion
			c.stats.MemRequests++
			sw.nextLine = lineStart + c.lineBytes
			c.progress = true
		}
		if blocked {
			c.bus.memBWBlocked = true
			c.postEvent(c.cycle + 1)
			break
		}
		c.lsq.storeWriteQ.Drop()
		c.lsq.sqCount--
		completions--
		c.progress = true
	}
}
