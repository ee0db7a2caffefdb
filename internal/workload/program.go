package workload

import (
	"fmt"

	"armdse/internal/isa"
)

// TemplInst is one static instruction of a loop body: an isa.Inst template
// plus the address pattern that instantiates its memory access per iteration.
type TemplInst struct {
	Inst isa.Inst
	Pat  MemPattern
}

// Loop is one innermost loop: a static body executed Iters times. If Iters is
// greater than one, the last body instruction must be the loop-back branch
// (the expansion patches its taken/target fields per iteration). A Loop with
// Iters == 1 models straight-line code.
type Loop struct {
	// Label names the loop for diagnostics ("triad", "cg_dot1"...).
	Label string
	// Body is the static instruction sequence.
	Body []TemplInst
	// Iters is the trip count.
	Iters int64

	basePC uint64
}

// Program is a sequence of loops executed in order, with the whole sequence
// repeated Repeat times (an outer timestep loop). Static PCs are laid out
// contiguously across loops so fetch-block and loop-buffer behaviour sees a
// realistic code footprint.
type Program struct {
	Loops  []Loop
	Repeat int64
}

// BuildProgram lays out PCs and validates loop structure. The code segment
// starts at codeBase (typically CodeBase).
func BuildProgram(codeBase uint64, repeat int64, loops ...Loop) (*Program, error) {
	if repeat < 1 {
		return nil, fmt.Errorf("workload: repeat %d < 1", repeat)
	}
	pc := codeBase
	for i := range loops {
		l := &loops[i]
		if len(l.Body) == 0 {
			return nil, fmt.Errorf("workload: loop %q has empty body", l.Label)
		}
		if l.Iters < 0 {
			return nil, fmt.Errorf("workload: loop %q has negative trip count %d", l.Label, l.Iters)
		}
		if l.Iters > 1 && l.Body[len(l.Body)-1].Inst.Op != isa.Branch {
			return nil, fmt.Errorf("workload: loop %q iterates %d times but does not end in a branch", l.Label, l.Iters)
		}
		l.basePC = pc
		pc += uint64(len(l.Body) * isa.InstBytes)
	}
	return &Program{Loops: loops, Repeat: repeat}, nil
}

// MustBuildProgram is BuildProgram panicking on error, for generators whose
// structure is statically correct.
func MustBuildProgram(codeBase uint64, repeat int64, loops ...Loop) *Program {
	p, err := BuildProgram(codeBase, repeat, loops...)
	if err != nil {
		panic(err)
	}
	return p
}

// StaticInsts returns the static code size in instructions.
func (p *Program) StaticInsts() int {
	n := 0
	for i := range p.Loops {
		n += len(p.Loops[i].Body)
	}
	return n
}

// DynamicInsts returns the total dynamic instruction count of one full run.
func (p *Program) DynamicInsts() int64 {
	var n int64
	for i := range p.Loops {
		n += int64(len(p.Loops[i].Body)) * p.Loops[i].Iters
	}
	return n * p.Repeat
}

// Stream returns a fresh instruction stream over the program.
func (p *Program) Stream() isa.Stream { return &Cursor{prog: p} }

// Stats summarises the program's full dynamic stream for analytical models.
// The walk is a full trace expansion; callers that evaluate many
// configurations against one program should cache the result per
// (application, vector length) — the orchestrate program cache does exactly
// that.
func (p *Program) Stats() isa.StreamStats {
	return isa.CollectStreamStats(p.Stream())
}

// DefaultMaterializeLimit is the largest dynamic instruction count Materialize
// will expand by default: ~88 MB of trace at 88 bytes per instruction. It
// serves tests and benchmark probes only; simulation runs replay programs
// through a Cursor and never materialize them.
const DefaultMaterializeLimit = 1 << 20

// Materialize expands the program's full dynamic trace into a flat
// instruction slice, or returns nil if the trace exceeds limit instructions
// (limit <= 0 means DefaultMaterializeLimit). The trace is exactly what a
// Cursor over the program yields. It serves tests and benchmark probes
// only: simulation runs replay the loop templates through a Cursor instead,
// so no run holds its whole trace in memory.
func (p *Program) Materialize(limit int64) []isa.Inst {
	if limit <= 0 {
		limit = DefaultMaterializeLimit
	}
	n := p.DynamicInsts()
	if n > limit {
		return nil
	}
	out := make([]isa.Inst, 0, n)
	s := Cursor{prog: p}
	var in isa.Inst
	for s.Next(&in) {
		out = append(out, in)
	}
	return out
}

// Cursor lazily expands a Program into its dynamic instruction trace,
// instantiating each instruction from the loop templates as it is read, so
// a run holds only the program's static code in memory. A pooled Cursor
// replays program after program through ResetTo without allocating.
type Cursor struct {
	prog *Program
	rep  int64
	seg  int
	iter int64
	idx  int
}

// ResetTo rewinds the cursor onto the start of p's trace.
func (s *Cursor) ResetTo(p *Program) { *s = Cursor{prog: p} }

// Next implements isa.Stream.
func (s *Cursor) Next(out *isa.Inst) bool {
	for {
		if s.rep >= s.prog.Repeat {
			return false
		}
		if s.seg >= len(s.prog.Loops) {
			s.seg = 0
			s.rep++
			continue
		}
		l := &s.prog.Loops[s.seg]
		if s.iter >= l.Iters {
			s.iter = 0
			s.seg++
			continue
		}
		ti := &l.Body[s.idx]
		*out = ti.Inst
		out.PC = l.basePC + uint64(s.idx*isa.InstBytes)
		if out.Op.IsMem() {
			out.Mem.Addr = ti.Pat.Addr(s.iter)
			out.Mem.Bytes = ti.Pat.Bytes
		}
		if out.Op == isa.Branch && s.idx == len(l.Body)-1 && l.Iters > 1 {
			out.Branch = isa.BranchInfo{
				Taken:    s.iter < l.Iters-1,
				Target:   l.basePC,
				LoopBack: true,
			}
		}
		s.idx++
		if s.idx >= len(l.Body) {
			s.idx = 0
			s.iter++
		}
		return true
	}
}

// Reset implements isa.Stream.
func (s *Cursor) Reset() { s.ResetTo(s.prog) }
