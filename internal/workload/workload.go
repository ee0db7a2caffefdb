package workload

import (
	"fmt"

	"armdse/internal/isa"
)

// Memory-map constants. Code sits low, data arrays are bump-allocated from
// DataBase with cache-line-friendly alignment. Addresses are "physical" as
// far as the cache model is concerned.
const (
	// CodeBase is the byte PC of the first static instruction.
	CodeBase = 0x1000
	// DataBase is the start of the data segment.
	DataBase = 0x10_0000
	// ArrayAlign is the alignment of every allocated array, chosen to be
	// at least the largest cache-line width in the study (256 B).
	ArrayAlign = 256
)

// MinVL and MaxVL bound the SVE vector lengths of the study (Table II).
const (
	MinVL = 128
	MaxVL = 2048
)

// CheckVL validates an SVE vector length: a power of two in [128, 2048].
func CheckVL(vl int) error {
	if vl < MinVL || vl > MaxVL || vl&(vl-1) != 0 {
		return fmt.Errorf("workload: vector length %d not a power of two in [%d, %d]", vl, MinVL, MaxVL)
	}
	return nil
}

// Workload is one benchmark application. Implementations are deterministic:
// the instruction stream depends only on the constructor inputs and the
// vector length passed to Program.
type Workload interface {
	// Name returns the application name as used in the paper.
	Name() string
	// Program builds the dynamic program for the given SVE vector length
	// in bits.
	Program(vl int) (*Program, error)
	// Footprint returns the data footprint in bytes (used to reason about
	// cache residency, e.g. STREAM's 4.6 MiB vs the L2 size range).
	Footprint() int64
	// Validate runs the functional reference implementation and checks
	// its results, standing in for the mini-apps' built-in validation.
	Validate() error
}

// Names of the four applications, in the paper's presentation order.
const (
	NameSTREAM    = "STREAM"
	NameMiniBUDE  = "miniBUDE"
	NameTeaLeaf   = "TeaLeaf"
	NameMiniSweep = "MiniSweep"
)

// PaperSuite returns the four workloads with the paper's Table IV inputs.
// At the default 128-bit vector length a run executes 25.0M (STREAM), 7.09M
// (TeaLeaf), 0.35M (miniBUDE) and 0.33M (MiniSweep) dynamic instructions —
// only STREAM lands in the paper's 10–50M range. Prefer TestSuite for unit
// tests and benchmark harnesses.
func PaperSuite() []Workload {
	return []Workload{
		NewSTREAM(PaperSTREAMInputs()),
		NewMiniBUDE(PaperMiniBUDEInputs()),
		NewTeaLeaf(PaperTeaLeafInputs()),
		NewMiniSweep(PaperMiniSweepInputs()),
	}
}

// TestSuite returns the four workloads scaled down (documented substitution:
// the paper's 1–5 minute simulations are shrunk to keep a laptop-scale study
// tractable while preserving each code's compute/memory character and the
// cache-residency crossovers of the study's parameter ranges).
func TestSuite() []Workload {
	return []Workload{
		NewSTREAM(TestSTREAMInputs()),
		NewMiniBUDE(TestMiniBUDEInputs()),
		NewTeaLeaf(TestTeaLeafInputs()),
		NewMiniSweep(TestMiniSweepInputs()),
	}
}

// ByName returns the workload with the given name from the suite, or nil.
func ByName(suite []Workload, name string) Workload {
	for _, w := range suite {
		if w.Name() == name {
			return w
		}
	}
	return nil
}

// StreamFor is a convenience returning the instruction stream of w at vl.
func StreamFor(w Workload, vl int) (isa.Stream, error) {
	p, err := w.Program(vl)
	if err != nil {
		return nil, err
	}
	return p.Stream(), nil
}

// VectorisationPct returns the percentage of instructions in w's dynamic
// stream at vl that are SVE instructions (at least one Z register operand) —
// the paper's Fig. 1 metric, measured over the full trace rather than a
// hardware counter.
func VectorisationPct(w Workload, vl int) (float64, error) {
	s, err := StreamFor(w, vl)
	if err != nil {
		return 0, err
	}
	total, sve := isa.CountSVE(s)
	if total == 0 {
		return 0, fmt.Errorf("workload %s: empty stream", w.Name())
	}
	return 100 * float64(sve) / float64(total), nil
}

// alloc is a bump allocator for laying out a workload's arrays.
type alloc struct{ next uint64 }

func newAlloc() *alloc { return &alloc{next: DataBase} }

// array reserves n bytes and returns the base address.
func (a *alloc) array(n int64) uint64 {
	base := a.next
	sz := (uint64(n) + ArrayAlign - 1) &^ uint64(ArrayAlign-1)
	a.next += sz
	return base
}

// used returns the total bytes allocated.
func (a *alloc) used() int64 { return int64(a.next - DataBase) }
