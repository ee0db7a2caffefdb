package isa

import (
	"fmt"
	"strings"
)

// InstBytes is the fixed instruction encoding width (Arm fixed 4-byte).
const InstBytes = 4

// MemRef describes the memory access of a load or store instruction for one
// dynamic instance: a starting byte address and an access width. Vector
// accesses of VL bits have Bytes = VL/8 and may span several cache lines; the
// LSQ splits them into per-line requests.
type MemRef struct {
	Addr  uint64
	Bytes uint32
}

// Lines returns the number of cache lines of width lineBytes the access
// touches. A zero-byte access touches no lines.
func (m MemRef) Lines(lineBytes int) int {
	if m.Bytes == 0 || lineBytes <= 0 {
		return 0
	}
	first := m.Addr / uint64(lineBytes)
	last := (m.Addr + uint64(m.Bytes) - 1) / uint64(lineBytes)
	return int(last-first) + 1
}

// BranchInfo carries the control-flow outcome of a branch instance. The model
// executes a fixed, pre-resolved instruction trace (execution-driven with a
// known stream, like the paper's validated runs), so branch direction is part
// of the instance; the front-end still pays fetch-redirect costs on taken
// branches.
type BranchInfo struct {
	// Taken reports whether this dynamic instance is taken.
	Taken bool
	// Target is the byte PC of the branch target when taken.
	Target uint64
	// LoopBack marks the canonical backward branch of an innermost loop;
	// the loop buffer keys on it.
	LoopBack bool
}

// Inst is one dynamic instruction instance. Generators reuse a single Inst
// value per Next call to keep the simulator allocation-free on the hot path.
type Inst struct {
	// Op is the execution group.
	Op Group
	// SVE reports whether the instruction has at least one Z (SVE vector)
	// register source or destination — the paper's Fig. 1 definition of a
	// vector instruction.
	SVE bool
	// PC is the byte address of the instruction in the static code.
	PC uint64

	// NDests and NSrcs give the populated prefix of Dests/Srcs.
	NDests uint8
	NSrcs  uint8
	// Dests are destination registers (renamed; consume physical regs).
	Dests [2]Reg
	// Srcs are source registers (dependencies).
	Srcs [4]Reg

	// Mem is the memory access, valid when Op is Load or Store.
	Mem MemRef
	// Branch is the control-flow outcome, valid when Op is Branch.
	Branch BranchInfo
}

// AddDest appends a destination register. It panics if the destination slots
// are exhausted, which indicates a generator bug.
func (in *Inst) AddDest(r Reg) {
	if int(in.NDests) >= len(in.Dests) {
		panic("isa: too many destination registers")
	}
	in.Dests[in.NDests] = r
	in.NDests++
}

// AddSrc appends a source register. It panics if the source slots are
// exhausted, which indicates a generator bug.
func (in *Inst) AddSrc(r Reg) {
	if int(in.NSrcs) >= len(in.Srcs) {
		panic("isa: too many source registers")
	}
	in.Srcs[in.NSrcs] = r
	in.NSrcs++
}

// DestRegs returns the populated destination registers.
func (in *Inst) DestRegs() []Reg { return in.Dests[:in.NDests] }

// SrcRegs returns the populated source registers.
func (in *Inst) SrcRegs() []Reg { return in.Srcs[:in.NSrcs] }

// String renders a compact assembly-like form for debugging and tests.
func (in *Inst) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%08x: %s", in.PC, in.Op)
	if in.SVE {
		b.WriteString(".sve")
	}
	sep := " "
	for _, d := range in.DestRegs() {
		b.WriteString(sep)
		b.WriteString(d.String())
		sep = ", "
	}
	if in.NDests > 0 && in.NSrcs > 0 {
		b.WriteString(" <-")
		sep = " "
	}
	for _, s := range in.SrcRegs() {
		b.WriteString(sep)
		b.WriteString(s.String())
		sep = ", "
	}
	if in.Op.IsMem() {
		fmt.Fprintf(&b, " [%#x,%d]", in.Mem.Addr, in.Mem.Bytes)
	}
	if in.Op == Branch {
		if in.Branch.Taken {
			fmt.Fprintf(&b, " ->%#x", in.Branch.Target)
		} else {
			b.WriteString(" not-taken")
		}
	}
	return b.String()
}
