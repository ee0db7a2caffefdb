package simeng

import "armdse/internal/isa"

// fetchUnit is the front-end stage component: the stream lookahead and the
// loop-buffer lock state. peekRef points at the current lookahead
// instruction in lazyBuf.
//
// The fetch queue holds pointers, not values: they point into lazyBuf, a
// private ring of fetchQCap+1 slots the stream decodes directly into. A slot
// is reused only after fetchQCap+1 further pushes, by which point the queue
// (capacity fetchQCap) must have dropped it — so every pointer stays valid
// from peek through rename.
type fetchUnit struct {
	stream     isa.Stream
	peekRef    *isa.Inst
	lazyBuf    []isa.Inst
	lazyIdx    int
	havePeek   bool
	streamDone bool
	lbActive   bool
	lbBranchPC uint64
	lbSeen     int
}

// reset re-initialises the unit for a new run, retaining lazyBuf.
func (u *fetchUnit) reset() {
	buf := u.lazyBuf
	*u = fetchUnit{}
	u.lazyBuf = buf
}

// ensurePeek keeps a one-instruction lookahead over the stream.
func (u *fetchUnit) ensurePeek() bool {
	if u.havePeek {
		return true
	}
	if u.streamDone {
		return false
	}
	if u.lazyBuf == nil {
		u.lazyBuf = make([]isa.Inst, fetchQCap+1)
	}
	slot := &u.lazyBuf[u.lazyIdx]
	if !u.stream.Next(slot) {
		u.streamDone = true
		return false
	}
	u.peekRef = slot
	u.havePeek = true
	return true
}

// fetchStage supplies up to FrontendWidth instructions per cycle, bounded by
// fetch-block alignment and taken-branch redirects, with small loops locked
// into the loop buffer (which lifts both limits).
func (c *Core) fetchStage() {
	u := &c.fetch
	fbs := uint64(c.cfg.FetchBlockSize)
	var blockEnd uint64
	blockSet := false
	for n := 0; n < c.cfg.FrontendWidth && !c.fetchQ.Full(); n++ {
		if !u.ensurePeek() {
			return
		}
		pc := u.peekRef.PC
		if !u.lbActive {
			if !blockSet {
				blockEnd = (pc &^ (fbs - 1)) + fbs
				blockSet = true
			}
			if pc >= blockEnd || pc < blockEnd-fbs {
				// Next instruction lies in another fetch block.
				return
			}
		}
		// inst aliases the lookahead's lazyBuf slot; the pointer stays
		// valid through rename — see the fetchUnit comment.
		inst := u.peekRef
		u.havePeek = false
		u.lazyIdx++
		if u.lazyIdx == len(u.lazyBuf) {
			u.lazyIdx = 0
		}
		c.fetchQ.Push(inst)
		c.stats.Fetched++
		if u.lbActive {
			c.stats.LoopBufferFetched++
		}
		c.progress = true
		if inst.Op != isa.Branch {
			continue
		}
		if inst.Branch.Taken {
			span := 0
			if inst.Branch.LoopBack && inst.PC >= inst.Branch.Target {
				span = int((inst.PC-inst.Branch.Target)/isa.InstBytes) + 1
			}
			if inst.Branch.LoopBack && span > 0 && span <= c.cfg.LoopBufferSize {
				if inst.PC == u.lbBranchPC {
					u.lbSeen++
					if u.lbSeen >= 2 {
						// The whole loop body has streamed through
						// twice: lock it into the loop buffer.
						u.lbActive = true
					}
				} else {
					u.lbBranchPC = inst.PC
					u.lbSeen = 1
					u.lbActive = false
				}
			} else {
				u.lbActive = false
				u.lbBranchPC = 0
				u.lbSeen = 0
			}
			if !u.lbActive {
				// Taken-branch redirect ends this cycle's fetch group.
				return
			}
		} else if inst.Branch.LoopBack && inst.PC == u.lbBranchPC {
			// Loop exit: release the loop buffer.
			u.lbActive = false
			u.lbBranchPC = 0
			u.lbSeen = 0
		}
	}
}
