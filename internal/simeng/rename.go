package simeng

import "armdse/internal/isa"

// renameUnit is the rename stage component: the per-class architectural
// producer map and the physical-register free-list accounting.
type renameUnit struct {
	regProducer [isa.NumRegClasses][]int64
	inFlight    [isa.NumRegClasses]int
	physAvail   [isa.NumRegClasses]int
}

// reset re-initialises the unit for a new run, reusing the per-class
// producer tables (their sizes are architectural constants).
func (u *renameUnit) reset(cfg Config) {
	for cl := 0; cl < isa.NumRegClasses; cl++ {
		arch := isa.RegClass(cl).ArchRegs()
		if cap(u.regProducer[cl]) >= arch {
			u.regProducer[cl] = u.regProducer[cl][:arch]
		} else {
			u.regProducer[cl] = make([]int64, arch)
		}
		for i := range u.regProducer[cl] {
			u.regProducer[cl][i] = -1
		}
		u.inFlight[cl] = 0
	}
	u.physAvail[isa.GP] = cfg.GPRegisters - isa.GP.ArchRegs()
	u.physAvail[isa.FP] = cfg.FPSVERegisters - isa.FP.ArchRegs()
	u.physAvail[isa.Pred] = cfg.PredRegisters - isa.Pred.ArchRegs()
	u.physAvail[isa.Cond] = cfg.CondRegisters - isa.Cond.ArchRegs()
}

// renameStage maps fetched instructions' sources to producer sequence
// numbers and claims physical destination registers, stalling (and posting
// to the stall bus) when a class's free list is exhausted. Each renamed
// instruction is written into its window slot, where it waits for dispatch;
// at most renameQCap wait at once.
func (c *Core) renameStage() {
	u := &c.rename
	for n := 0; n < c.cfg.FrontendWidth && !c.fetchQ.Empty() && c.seqRenamed-c.seqDispatched < renameQCap; n++ {
		in := *c.fetchQ.Peek()
		// Check free physical registers for every destination class.
		// NDests <= 2, so the per-class tally unrolls to a pair check.
		switch in.NDests {
		case 1:
			cl := in.Dests[0].Class
			if u.inFlight[cl]+1 > u.physAvail[cl] {
				c.stats.RenameStalls[cl]++
				c.bus.renameBlocked = true
				return
			}
		case 2:
			// Preserve the ascending-class attribution order of the old
			// per-class tally loop.
			cl0, cl1 := in.Dests[0].Class, in.Dests[1].Class
			if cl1 < cl0 {
				cl0, cl1 = cl1, cl0
			}
			need0 := 1
			if cl1 == cl0 {
				need0 = 2
			}
			if u.inFlight[cl0]+need0 > u.physAvail[cl0] {
				c.stats.RenameStalls[cl0]++
				c.bus.renameBlocked = true
				return
			}
			if cl1 != cl0 && u.inFlight[cl1]+1 > u.physAvail[cl1] {
				c.stats.RenameStalls[cl1]++
				c.bus.renameBlocked = true
				return
			}
		}
		seq := c.seqRenamed
		c.seqRenamed++
		// Build the entry in its window slot. The slot is dirty (the
		// window is never cleared), so every field a later stage reads is
		// stored here or at dispatch: wakeNext/destClass entries beyond
		// ns/nd are never read, and a failed build aborts the run before
		// dispatch sees the slot.
		e := &c.window[seq&c.wmask]
		e.op = in.Op
		e.sve = in.SVE
		e.pc = in.PC
		e.nd = in.NDests
		e.ns = in.NSrcs
		if in.Op.IsMem() {
			if in.Mem.Bytes == 0 {
				c.fail("simeng: zero-byte memory access at pc %#x", in.PC)
				return
			}
			e.addr = in.Mem.Addr
			e.endAddr = in.Mem.Addr + uint64(in.Mem.Bytes)
		} else {
			e.addr = 0
			e.endAddr = 0
		}
		e.nextLine = e.addr
		for i := 0; i < int(in.NSrcs); i++ {
			s := in.Srcs[i]
			if int(s.ID) >= len(u.regProducer[s.Class]) {
				c.fail("simeng: source register %v out of architectural range at pc %#x", s, in.PC)
				return
			}
			e.wakeNext[i] = u.regProducer[s.Class][s.ID]
		}
		for i := 0; i < int(in.NDests); i++ {
			d := in.Dests[i]
			if int(d.ID) >= len(u.regProducer[d.Class]) {
				c.fail("simeng: destination register %v out of architectural range at pc %#x", d, in.PC)
				return
			}
			u.regProducer[d.Class][d.ID] = seq
			e.destClass[i] = uint8(d.Class)
			u.inFlight[d.Class]++
		}
		c.fetchQ.Drop()
		c.progress = true
	}
}
