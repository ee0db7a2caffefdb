package isa

import (
	"testing"
	"testing/quick"
)

func TestRegClassString(t *testing.T) {
	cases := map[RegClass]string{GP: "GP", FP: "FP", Pred: "PRED", Cond: "COND"}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("RegClass(%d).String() = %q, want %q", c, got, want)
		}
	}
	if got := RegClass(99).String(); got != "RegClass(99)" {
		t.Errorf("unknown class string = %q", got)
	}
}

func TestRegClassArchRegs(t *testing.T) {
	if got := GP.ArchRegs(); got != 32 {
		t.Errorf("GP.ArchRegs() = %d, want 32", got)
	}
	if got := FP.ArchRegs(); got != 32 {
		t.Errorf("FP.ArchRegs() = %d, want 32", got)
	}
	if got := Pred.ArchRegs(); got != 16 {
		t.Errorf("Pred.ArchRegs() = %d, want 16", got)
	}
	if got := Cond.ArchRegs(); got != 1 {
		t.Errorf("Cond.ArchRegs() = %d, want 1", got)
	}
	if got := RegClass(9).ArchRegs(); got != 0 {
		t.Errorf("unknown class ArchRegs = %d, want 0", got)
	}
}

func TestRegString(t *testing.T) {
	cases := []struct {
		r    Reg
		want string
	}{
		{R(GP, 3), "X3"},
		{R(FP, 7), "Z7"},
		{R(Pred, 1), "P1"},
		{R(Cond, 0), "NZCV"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestGroupString(t *testing.T) {
	if got := Load.String(); got != "LOAD" {
		t.Errorf("Load.String() = %q", got)
	}
	if got := Group(200).String(); got != "Group(200)" {
		t.Errorf("unknown group string = %q", got)
	}
}

func TestGroupPredicates(t *testing.T) {
	for g := Group(0); g < NumGroups; g++ {
		wantMem := g == Load || g == Store
		if got := g.IsMem(); got != wantMem {
			t.Errorf("%v.IsMem() = %v, want %v", g, got, wantMem)
		}
		wantVec := g == SVEAdd || g == SVEMul || g == SVEFMA || g == SVEDiv
		if got := g.IsVector(); got != wantVec {
			t.Errorf("%v.IsVector() = %v, want %v", g, got, wantVec)
		}
		if lat := g.Latency(); lat < 1 {
			t.Errorf("%v.Latency() = %d, want >= 1", g, lat)
		}
		wantPipe := g != IntDiv && g != FPDiv && g != SVEDiv
		if got := g.Pipelined(); got != wantPipe {
			t.Errorf("%v.Pipelined() = %v, want %v", g, got, wantPipe)
		}
	}
}

func TestDivLatenciesAreLong(t *testing.T) {
	for _, g := range []Group{IntDiv, FPDiv, SVEDiv} {
		if g.Latency() < 10 {
			t.Errorf("%v latency %d implausibly short for a divide", g, g.Latency())
		}
	}
}

func TestMemRefLines(t *testing.T) {
	cases := []struct {
		addr  uint64
		bytes uint32
		line  int
		want  int
	}{
		{0, 8, 64, 1},
		{60, 8, 64, 2},   // straddles a 64B boundary
		{0, 64, 64, 1},   // exactly one line
		{1, 64, 64, 2},   // misaligned full line
		{0, 256, 64, 4},  // 2048-bit vector over 64B lines
		{0, 256, 256, 1}, // same vector, one wide line
		{0, 0, 64, 0},    // empty access
		{8, 4, 0, 0},     // degenerate line width
	}
	for _, c := range cases {
		m := MemRef{Addr: c.addr, Bytes: c.bytes}
		if got := m.Lines(c.line); got != c.want {
			t.Errorf("MemRef{%#x,%d}.Lines(%d) = %d, want %d", c.addr, c.bytes, c.line, got, c.want)
		}
	}
}

func TestMemRefLinesProperty(t *testing.T) {
	// Property: the number of lines touched is always within one of
	// bytes/lineBytes rounded up, and at least 1 for non-empty accesses.
	f := func(addr uint64, bytes uint16, lineShift uint8) bool {
		if bytes == 0 {
			return true
		}
		line := 16 << (lineShift % 5) // 16..256
		m := MemRef{Addr: addr % (1 << 40), Bytes: uint32(bytes)}
		got := m.Lines(line)
		minLines := (int(bytes) + line - 1) / line
		return got >= minLines && got <= minLines+1 && got >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInstOperands(t *testing.T) {
	var in Inst
	in.Op = FPFMA
	in.AddDest(R(FP, 0))
	in.AddSrc(R(FP, 1))
	in.AddSrc(R(FP, 2))
	in.AddSrc(R(FP, 0))
	if len(in.DestRegs()) != 1 || len(in.SrcRegs()) != 3 {
		t.Fatalf("operand counts = %d/%d, want 1/3", in.NDests, in.NSrcs)
	}
}

func TestInstOperandOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddDest overflow did not panic")
		}
	}()
	var in Inst
	in.AddDest(R(GP, 0))
	in.AddDest(R(GP, 1))
	in.AddDest(R(GP, 2))
}

func TestInstSrcOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddSrc overflow did not panic")
		}
	}()
	var in Inst
	for i := 0; i < 5; i++ {
		in.AddSrc(R(GP, i))
	}
}

func TestInstString(t *testing.T) {
	var ld Inst
	ld.Op = Load
	ld.SVE = true
	ld.PC = 0x40
	ld.AddDest(R(FP, 3))
	ld.AddSrc(R(GP, 1))
	ld.Mem = MemRef{Addr: 0x1000, Bytes: 32}
	s := ld.String()
	for _, frag := range []string{"LOAD", ".sve", "Z3", "X1", "0x1000"} {
		if !contains(s, frag) {
			t.Errorf("Inst.String() = %q missing %q", s, frag)
		}
	}

	var br Inst
	br.Op = Branch
	br.Branch = BranchInfo{Taken: true, Target: 0x20}
	if !contains(br.String(), "->0x20") {
		t.Errorf("taken branch string = %q", br.String())
	}
	br.Branch.Taken = false
	if !contains(br.String(), "not-taken") {
		t.Errorf("not-taken branch string = %q", br.String())
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestSliceStream(t *testing.T) {
	insts := make([]Inst, 5)
	for i := range insts {
		insts[i].PC = uint64(i * InstBytes)
	}
	s := NewSliceStream(insts)
	var in Inst
	for i := 0; i < 5; i++ {
		if !s.Next(&in) {
			t.Fatalf("stream exhausted at %d", i)
		}
		if in.PC != uint64(i*InstBytes) {
			t.Errorf("inst %d PC = %#x", i, in.PC)
		}
	}
	if s.Next(&in) {
		t.Error("stream yielded past its end")
	}
	if s.Next(&in) {
		t.Error("exhausted stream yielded again")
	}
	s.Reset()
	if !s.Next(&in) || in.PC != 0 {
		t.Error("Reset did not rewind")
	}
}

func TestCountAndCountSVE(t *testing.T) {
	insts := make([]Inst, 10)
	for i := range insts {
		insts[i].SVE = i%2 == 0
	}
	s := NewSliceStream(insts)
	if n := Count(s); n != 10 {
		t.Errorf("Count = %d, want 10", n)
	}
	// Count must have reset the stream.
	total, sve := CountSVE(s)
	if total != 10 || sve != 5 {
		t.Errorf("CountSVE = (%d, %d), want (10, 5)", total, sve)
	}
	// And CountSVE resets too.
	if n := Count(s); n != 10 {
		t.Errorf("Count after CountSVE = %d, want 10", n)
	}
}

func TestGroupSet(t *testing.T) {
	s := Groups(Load, Store)
	if !s.Has(Load) || !s.Has(Store) {
		t.Error("set missing members")
	}
	if s.Has(Branch) || s.Has(IntALU) {
		t.Error("set has extra members")
	}
	var empty GroupSet
	for g := Group(0); g < NumGroups; g++ {
		if empty.Has(g) {
			t.Errorf("empty set contains %v", g)
		}
	}
}

func TestPaperPorts(t *testing.T) {
	ports := PaperPorts()
	if len(ports) != 9 {
		t.Fatalf("port count = %d, want 9 (3 LS + 2 SVE + 1 PRED + 3 MIX)", len(ports))
	}
	// Every group must be executable somewhere.
	for g := Group(0); g < NumGroups; g++ {
		ok := false
		for _, p := range ports {
			if p.Accept.Has(g) {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("no port accepts group %v", g)
		}
	}
	// Load/store ports are exclusive to memory ops.
	nLS, nSVE, nPred := 0, 0, 0
	for _, p := range ports {
		if p.Accept.Has(Load) {
			nLS++
			for g := Group(0); g < NumGroups; g++ {
				if p.Accept.Has(g) && !g.IsMem() {
					t.Errorf("LS port %s accepts non-memory group %v", p.Name, g)
				}
			}
		}
		if p.Accept.Has(SVEFMA) {
			nSVE++
		}
		if p.Accept.Has(PredOp) {
			nPred++
		}
	}
	if nLS != 3 {
		t.Errorf("load/store ports = %d, want 3", nLS)
	}
	if nSVE != 2 {
		t.Errorf("SVE ports = %d, want 2", nSVE)
	}
	if nPred != 1 {
		t.Errorf("predicate ports = %d, want 1", nPred)
	}
	if ReservationStationSize != 60 {
		t.Errorf("RS size = %d, want 60", ReservationStationSize)
	}
	if DispatchRate != 4 {
		t.Errorf("dispatch rate = %d, want 4", DispatchRate)
	}
}
