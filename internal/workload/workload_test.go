package workload

import (
	"testing"
	"testing/quick"

	"armdse/internal/isa"
)

func TestCheckVL(t *testing.T) {
	for _, vl := range []int{128, 256, 512, 1024, 2048} {
		if err := CheckVL(vl); err != nil {
			t.Errorf("CheckVL(%d) = %v, want nil", vl, err)
		}
	}
	for _, vl := range []int{0, 64, 96, 100, 192, 4096, -128} {
		if err := CheckVL(vl); err == nil {
			t.Errorf("CheckVL(%d) = nil, want error", vl)
		}
	}
}

func TestMemPatternAddr(t *testing.T) {
	flat := Flat(1000, 8, 8)
	for i := int64(0); i < 5; i++ {
		if got := flat.Addr(i); got != uint64(1000+8*i) {
			t.Errorf("flat.Addr(%d) = %d", i, got)
		}
	}
	fixed := Fixed(500, 16)
	if fixed.Addr(0) != 500 || fixed.Addr(100) != 500 {
		t.Error("fixed pattern moved")
	}
	nested := Nested(0, 4, 8, 100, 8)
	cases := map[int64]uint64{0: 0, 1: 8, 3: 24, 4: 100, 5: 108, 9: 208}
	for i, want := range cases {
		if got := nested.Addr(i); got != want {
			t.Errorf("nested.Addr(%d) = %d, want %d", i, got, want)
		}
	}
	neg := Flat(1000, -8, 8)
	if got := neg.Addr(2); got != 984 {
		t.Errorf("negative stride Addr(2) = %d, want 984", got)
	}
}

func TestMemPatternNestedMatchesManualLoop(t *testing.T) {
	// Property: a Nested pattern equals the manually computed two-level
	// loop address for arbitrary small trip counts and strides.
	f := func(innerN uint8, sIn, sOut int16, iter uint16) bool {
		in := int64(innerN%16) + 1
		p := Nested(1<<20, in, int64(sIn), int64(sOut), 8)
		i := int64(iter % 2048)
		want := uint64(int64(1<<20) + (i%in)*int64(sIn) + (i/in)*int64(sOut))
		return p.Addr(i) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBuildProgramErrors(t *testing.T) {
	body := NewBody()
	body.Op(isa.IntALU, false, isa.R(isa.GP, 3), isa.R(isa.GP, 4))

	if _, err := BuildProgram(CodeBase, 0, body.Loop("l", 1)); err == nil {
		t.Error("repeat 0 accepted")
	}
	if _, err := BuildProgram(CodeBase, 1, Loop{Label: "empty", Iters: 1}); err == nil {
		t.Error("empty body accepted")
	}
	if _, err := BuildProgram(CodeBase, 1, body.Loop("l", -1)); err == nil {
		t.Error("negative trip count accepted")
	}
	// Iterating loop without trailing branch must be rejected.
	if _, err := BuildProgram(CodeBase, 1, body.Loop("l", 2)); err == nil {
		t.Error("branchless iterating loop accepted")
	}
	// Single iteration needs no branch.
	if _, err := BuildProgram(CodeBase, 1, body.Loop("l", 1)); err != nil {
		t.Errorf("straight-line loop rejected: %v", err)
	}
}

func TestProgramExpansion(t *testing.T) {
	b := NewBody()
	b.Load(isa.R(isa.FP, 1), false, Flat(DataBase, 8, 8))
	b.ScalarLoopEnd()
	prog, err := BuildProgram(CodeBase, 2, b.Loop("l", 3))
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.DynamicInsts(); got != 24 {
		t.Fatalf("DynamicInsts = %d, want 24", got)
	}

	s := prog.Stream()
	var insts []isa.Inst
	var in isa.Inst
	for s.Next(&in) {
		insts = append(insts, in)
	}
	if len(insts) != 24 {
		t.Fatalf("expanded %d instructions, want 24", len(insts))
	}
	// Load addresses advance per iteration and reset per repeat.
	wantAddrs := []uint64{DataBase, DataBase + 8, DataBase + 16, DataBase, DataBase + 8, DataBase + 16}
	for k, want := range wantAddrs {
		got := insts[k*4].Mem.Addr
		if got != want {
			t.Errorf("load %d addr = %#x, want %#x", k, got, want)
		}
	}
	// Loop-back branch: taken on iters 0,1, not taken on iter 2.
	for k := 0; k < 6; k++ {
		br := insts[k*4+3]
		if br.Op != isa.Branch {
			t.Fatalf("inst %d is %v, want branch", k*4+3, br.Op)
		}
		wantTaken := k%3 != 2
		if br.Branch.Taken != wantTaken {
			t.Errorf("branch %d taken = %v, want %v", k, br.Branch.Taken, wantTaken)
		}
		if !br.Branch.LoopBack {
			t.Errorf("branch %d not marked loop-back", k)
		}
		if br.Branch.Taken && br.Branch.Target != CodeBase {
			t.Errorf("branch %d target = %#x, want %#x", k, br.Branch.Target, CodeBase)
		}
	}
	// PCs are contiguous from CodeBase.
	for k, inst := range insts[:4] {
		if inst.PC != CodeBase+uint64(k*isa.InstBytes) {
			t.Errorf("inst %d PC = %#x", k, inst.PC)
		}
	}
	// Reset replays identically.
	s.Reset()
	var again isa.Inst
	for k := 0; s.Next(&again); k++ {
		if again != insts[k] {
			t.Fatalf("replay diverged at %d: %v vs %v", k, &again, &insts[k])
		}
	}
}

func TestProgramStreamDeterminism(t *testing.T) {
	for _, w := range TestSuite() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			s1, err := StreamFor(w, 256)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := StreamFor(w, 256)
			if err != nil {
				t.Fatal(err)
			}
			var a, b isa.Inst
			n := 0
			for {
				ok1 := s1.Next(&a)
				ok2 := s2.Next(&b)
				if ok1 != ok2 {
					t.Fatalf("streams desynchronised at %d", n)
				}
				if !ok1 {
					break
				}
				if a != b {
					t.Fatalf("instruction %d differs: %v vs %v", n, &a, &b)
				}
				n++
				if n > 500_000 {
					break
				}
			}
			if n == 0 {
				t.Fatal("empty stream")
			}
		})
	}
}

func TestDynamicInstsMatchesStream(t *testing.T) {
	for _, w := range TestSuite() {
		p, err := w.Program(512)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		if got := int64(isa.Count(p.Stream())); got != p.DynamicInsts() {
			t.Errorf("%s: stream count %d != DynamicInsts %d", w.Name(), got, p.DynamicInsts())
		}
	}
}

// TestCursorMatchesMaterialize pins the pooled replay path: one Cursor,
// moved from program to program with ResetTo, yields exactly the
// materialized trace of every TestSuite program at every vector length —
// also when it is reset onto a program mid-way through another's trace.
func TestCursorMatchesMaterialize(t *testing.T) {
	var c Cursor
	var prev *Program
	var in isa.Inst
	for _, w := range TestSuite() {
		for _, vl := range []int{128, 256, 512, 1024, 2048} {
			p, err := w.Program(vl)
			if err != nil {
				t.Fatalf("%s vl=%d: %v", w.Name(), vl, err)
			}
			want := p.Materialize(0)
			if want == nil {
				t.Fatalf("%s vl=%d: %d instructions exceed the materialization limit", w.Name(), vl, p.DynamicInsts())
			}
			if prev != nil {
				// Abandon another program's trace half-way through.
				c.ResetTo(prev)
				for i := int64(0); i < prev.DynamicInsts()/2; i++ {
					c.Next(&in)
				}
			}
			c.ResetTo(p)
			for pass := 0; pass < 2; pass++ {
				n := 0
				for c.Next(&in) {
					if n >= len(want) || in != want[n] {
						t.Fatalf("%s vl=%d pass %d: cursor diverges from Materialize at instruction %d", w.Name(), vl, pass, n)
					}
					n++
				}
				if n != len(want) {
					t.Fatalf("%s vl=%d pass %d: cursor yields %d instructions, Materialize %d", w.Name(), vl, pass, n, len(want))
				}
				c.Reset() // the second pass replays the same program
			}
			prev = p
		}
	}
}

// TestPaperSuiteInstructionCounts pins the dynamic instruction count of each
// paper-input program at the default vector length (128 bits). The counts
// follow from the loop structure alone; nothing is expanded.
func TestPaperSuiteInstructionCounts(t *testing.T) {
	want := map[string]int64{
		NameSTREAM:    25_000_000,
		NameMiniBUDE:  349_696,
		NameTeaLeaf:   7_088_000,
		NameMiniSweep: 327_680,
	}
	for _, w := range PaperSuite() {
		p, err := w.Program(128)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		if got := p.DynamicInsts(); got != want[w.Name()] {
			t.Errorf("%s: %d dynamic instructions, want %d", w.Name(), got, want[w.Name()])
		}
	}
}

func TestVectorLengthAgnosticStreams(t *testing.T) {
	// Larger vectors must strictly shrink the dynamic stream of the
	// vectorised codes and leave the scalar codes nearly unchanged.
	for _, w := range TestSuite() {
		n128, err := streamLen(w, 128)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		n2048, err := streamLen(w, 2048)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		switch w.Name() {
		case NameSTREAM, NameMiniBUDE:
			if n2048 >= n128 {
				t.Errorf("%s: VL 2048 stream (%d) not shorter than VL 128 (%d)", w.Name(), n2048, n128)
			}
			if ratio := float64(n128) / float64(n2048); ratio < 4 {
				t.Errorf("%s: VL scaling ratio %.2f implausibly low", w.Name(), ratio)
			}
		case NameTeaLeaf, NameMiniSweep:
			if diff := float64(n128-n2048) / float64(n128); diff > 0.05 {
				t.Errorf("%s: scalar code shrank %.1f%% with VL", w.Name(), 100*diff)
			}
		}
	}
}

func streamLen(w Workload, vl int) (int64, error) {
	p, err := w.Program(vl)
	if err != nil {
		return 0, err
	}
	return p.DynamicInsts(), nil
}

func TestVectorisationPct(t *testing.T) {
	// The Fig. 1 property: STREAM and miniBUDE are highly vectorised,
	// TeaLeaf and MiniSweep poorly (compiler failure).
	for _, w := range TestSuite() {
		pct, err := VectorisationPct(w, 512)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		switch w.Name() {
		case NameSTREAM, NameMiniBUDE:
			if pct < 30 {
				t.Errorf("%s: vectorisation %.1f%%, want >= 30%%", w.Name(), pct)
			}
		case NameTeaLeaf, NameMiniSweep:
			if pct > 5 {
				t.Errorf("%s: vectorisation %.1f%%, want <= 5%%", w.Name(), pct)
			}
		}
	}
}

func TestFootprints(t *testing.T) {
	// STREAM's paper footprint is ~4.6 MiB (3 × 200k × 8B); the others are
	// cache-scale.
	s := NewSTREAM(PaperSTREAMInputs())
	if got := s.Footprint(); got < 4_700_000 || got > 5_000_000 {
		t.Errorf("STREAM paper footprint = %d, want ~4.8e6", got)
	}
	for _, w := range []Workload{
		NewMiniBUDE(PaperMiniBUDEInputs()),
		NewTeaLeaf(PaperTeaLeafInputs()),
		NewMiniSweep(PaperMiniSweepInputs()),
	} {
		if w.Footprint() <= 0 {
			t.Errorf("%s footprint = %d", w.Name(), w.Footprint())
		}
		if w.Footprint() > 1<<20 {
			t.Errorf("%s footprint %d unexpectedly above 1 MiB", w.Name(), w.Footprint())
		}
	}
}

func TestAddressesStayInDataSegment(t *testing.T) {
	for _, w := range TestSuite() {
		for _, vl := range []int{128, 2048} {
			s, err := StreamFor(w, vl)
			if err != nil {
				t.Fatalf("%s: %v", w.Name(), err)
			}
			lo := uint64(DataBase)
			hi := uint64(DataBase) + uint64(w.Footprint())
			var in isa.Inst
			n := 0
			for s.Next(&in) && n < 2_000_000 {
				n++
				if !in.Op.IsMem() {
					continue
				}
				if in.Mem.Addr < lo || in.Mem.Addr+uint64(in.Mem.Bytes) > hi {
					t.Fatalf("%s vl=%d: access [%#x,%d) outside data [%#x,%#x)",
						w.Name(), vl, in.Mem.Addr, in.Mem.Bytes, lo, hi)
				}
			}
		}
	}
}

func TestValidateAll(t *testing.T) {
	for _, w := range TestSuite() {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name(), err)
		}
	}
}

func TestValidatePaperSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale validation in -short mode")
	}
	for _, w := range PaperSuite() {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name(), err)
		}
	}
}

func TestWorkloadErrors(t *testing.T) {
	if _, err := NewSTREAM(STREAMInputs{}).Program(256); err == nil {
		t.Error("zero STREAM inputs accepted")
	}
	if _, err := NewMiniBUDE(MiniBUDEInputs{}).Program(256); err == nil {
		t.Error("zero miniBUDE inputs accepted")
	}
	if _, err := NewTeaLeaf(TeaLeafInputs{}).Program(256); err == nil {
		t.Error("zero TeaLeaf inputs accepted")
	}
	if _, err := NewMiniSweep(MiniSweepInputs{}).Program(256); err == nil {
		t.Error("zero MiniSweep inputs accepted")
	}
	if _, err := NewSTREAM(TestSTREAMInputs()).Program(100); err == nil {
		t.Error("invalid VL accepted")
	}
}

func TestByNameAndSuite(t *testing.T) {
	suite := TestSuite()
	if len(suite) != 4 {
		t.Fatalf("suite size = %d", len(suite))
	}
	names := []string{NameSTREAM, NameMiniBUDE, NameTeaLeaf, NameMiniSweep}
	for i, w := range suite {
		if w.Name() != names[i] {
			t.Errorf("suite[%d] = %s, want %s", i, w.Name(), names[i])
		}
		if ByName(suite, names[i]) != w {
			t.Errorf("ByName(%s) returned wrong workload", names[i])
		}
	}
	if ByName(suite, "nope") != nil {
		t.Error("ByName of unknown name returned non-nil")
	}
}

func TestMiniSweepOctantDirections(t *testing.T) {
	m := NewMiniSweep(TestMiniSweepInputs())
	p, err := m.Program(256)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Loops) != 8 {
		t.Fatalf("octant loops = %d, want 8", len(p.Loops))
	}
	// Even octants walk psiIn forward, odd ones backward.
	firstLoadAddr := func(l *Loop, iter int64) uint64 {
		return l.Body[0].Pat.Addr(iter)
	}
	for i := range p.Loops {
		l := &p.Loops[i]
		a0 := firstLoadAddr(l, 0)
		a1 := firstLoadAddr(l, 1)
		if i%2 == 0 && a1 <= a0 {
			t.Errorf("octant %d should walk forward (%#x -> %#x)", i, a0, a1)
		}
		if i%2 == 1 && a1 >= a0 {
			t.Errorf("octant %d should walk backward (%#x -> %#x)", i, a0, a1)
		}
	}
}

func TestBodyBuilderShapes(t *testing.T) {
	b := NewBody()
	b.Load(isa.R(isa.FP, 1), true, Flat(DataBase, 64, 64))
	b.Op(isa.SVEFMA, true, isa.R(isa.FP, 2), isa.R(isa.FP, 1), isa.R(isa.FP, 3), isa.R(isa.FP, 2))
	b.Store(isa.R(isa.FP, 2), true, Flat(DataBase, 64, 64))
	b.SVELoopEnd()
	insts := b.Insts()
	if len(insts) != 6 {
		t.Fatalf("body len = %d, want 6", len(insts))
	}
	// SVE ops carry the governing predicate as a source.
	for i := 0; i < 3; i++ {
		found := false
		for _, s := range insts[i].Inst.SrcRegs() {
			if s.Class == isa.Pred {
				found = true
			}
		}
		if !found {
			t.Errorf("inst %d missing governing predicate", i)
		}
	}
	// WHILELO writes both the predicate and the flags.
	while := insts[4].Inst
	if while.Op != isa.PredOp || while.NDests != 2 {
		t.Errorf("whilelo shape wrong: %v", &while)
	}
	// Branch reads the flags.
	br := insts[5].Inst
	if br.Op != isa.Branch || br.NSrcs != 1 || br.Srcs[0].Class != isa.Cond {
		t.Errorf("branch shape wrong: %v", &br)
	}

	sc := NewBody()
	sc.Op(isa.IntALU, false, isa.R(isa.GP, 5), isa.R(isa.GP, 6))
	sc.ScalarLoopEnd()
	if sc.Len() != 4 {
		t.Errorf("scalar body len = %d, want 4", sc.Len())
	}
}

func TestSTREAMKernelStructure(t *testing.T) {
	s := NewSTREAM(STREAMInputs{ArraySize: 64, Times: 2})
	p, err := s.Program(512) // epv = 8 -> 8 iterations per kernel
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Loops) != 4 {
		t.Fatalf("kernel loops = %d, want 4", len(p.Loops))
	}
	wantLabels := []string{"copy", "scale", "add", "triad"}
	for i, l := range p.Loops {
		if l.Label != wantLabels[i] {
			t.Errorf("loop %d label = %q, want %q", i, l.Label, wantLabels[i])
		}
		if l.Iters != 8 {
			t.Errorf("loop %q iters = %d, want 8", l.Label, l.Iters)
		}
	}
	if p.Repeat != 2 {
		t.Errorf("repeat = %d, want 2", p.Repeat)
	}
	// Triad moves 3 vectors of VL bits per iteration: 2 loads + 1 store.
	triad := p.Loops[3]
	var loads, stores int
	for _, ti := range triad.Body {
		switch ti.Inst.Op {
		case isa.Load:
			loads++
			if ti.Pat.Bytes != 64 {
				t.Errorf("triad load width = %d, want 64", ti.Pat.Bytes)
			}
		case isa.Store:
			stores++
		}
	}
	if loads != 2 || stores != 1 {
		t.Errorf("triad loads/stores = %d/%d, want 2/1", loads, stores)
	}
}

func TestTeaLeafSolverVariants(t *testing.T) {
	in := TestTeaLeafInputs()

	cg := NewTeaLeaf(in)
	inJ := in
	inJ.Solver = SolverJacobi
	jac := NewTeaLeaf(inJ)
	inC := in
	inC.Solver = SolverCheby
	chb := NewTeaLeaf(inC)

	nCG, err := streamLen(cg, 256)
	if err != nil {
		t.Fatal(err)
	}
	nJ, err := streamLen(jac, 256)
	if err != nil {
		t.Fatal(err)
	}
	nC, err := streamLen(chb, 256)
	if err != nil {
		t.Fatal(err)
	}
	// CG does the most work per iteration (matvec + 2 dots + 3 axpys),
	// Chebyshev drops the dots and one axpy, Jacobi is leaner still.
	if !(nCG > nC && nC > nJ) {
		t.Errorf("instruction ordering: cg=%d cheby=%d jacobi=%d", nCG, nC, nJ)
	}

	// Jacobi has no loop-carried accumulator: no FP instruction reads a
	// register it also writes *before any earlier write in the body*
	// (which is what makes CG's dot-product FMA a serial chain).
	hasLoopCarried := func(body []TemplInst) bool {
		written := map[isa.Reg]bool{}
		for _, ti := range body {
			in := ti.Inst
			for _, src := range in.SrcRegs() {
				if src.Class != isa.FP || written[src] {
					continue
				}
				for _, d := range in.DestRegs() {
					if d == src {
						return true
					}
				}
			}
			for _, d := range in.DestRegs() {
				written[d] = true
			}
		}
		return false
	}
	pJ, err := jac.Program(256)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range pJ.Loops {
		if l.Label == "jacobi" && hasLoopCarried(l.Body) {
			t.Error("jacobi body contains a loop-carried reduction")
		}
	}
	// ...while CG's dot loops do carry one (sanity check of the checker).
	pCG, err := cg.Program(256)
	if err != nil {
		t.Fatal(err)
	}
	foundDot := false
	for _, l := range pCG.Loops {
		if l.Label == "dot_pw" {
			foundDot = true
			if !hasLoopCarried(l.Body) {
				t.Error("cg dot loop lost its reduction chain")
			}
		}
	}
	if !foundDot {
		t.Error("cg program missing dot loop")
	}

	// Solver names render as the mini-app spells them.
	if SolverCG.String() != "cg" || SolverJacobi.String() != "jacobi" || SolverCheby.String() != "cheby" {
		t.Error("solver names wrong")
	}

	// All three validate (Jacobi via its own reference path).
	for _, w := range []Workload{cg, jac, chb} {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.(*TeaLeaf).Inputs().Solver, err)
		}
	}
}

func TestTeaLeafSolversSimulate(t *testing.T) {
	// All solver variants run to completion on the engine (via the
	// facade-level integration done elsewhere; here just check streams
	// stay in bounds).
	for _, solver := range []TeaLeafSolver{SolverCG, SolverJacobi, SolverCheby} {
		in := TestTeaLeafInputs()
		in.Solver = solver
		w := NewTeaLeaf(in)
		s, err := StreamFor(w, 512)
		if err != nil {
			t.Fatal(err)
		}
		lo := uint64(DataBase)
		hi := uint64(DataBase) + uint64(w.Footprint())
		var inst isa.Inst
		for s.Next(&inst) {
			if inst.Op.IsMem() && (inst.Mem.Addr < lo || inst.Mem.Addr+uint64(inst.Mem.Bytes) > hi) {
				t.Fatalf("%v: access out of bounds", solver)
			}
		}
	}
}
