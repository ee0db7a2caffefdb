package isa

// Stream supplies a dynamic instruction trace to the core model one
// instruction at a time. Implementations must be deterministic: two streams
// constructed with identical arguments yield identical traces, which is the
// property the paper relies on for like-for-like configuration comparison
// ("only vector length imposes a restriction on the instruction stream").
type Stream interface {
	// Next fills in the next dynamic instruction and reports whether one
	// was produced. After Next returns false the stream is exhausted and
	// every subsequent call must also return false.
	Next(*Inst) bool
	// Reset rewinds the stream to its beginning.
	Reset()
}

// SliceStream replays a fixed slice of instructions. It is primarily for
// tests and tiny examples; workload generators use lazy streams.
type SliceStream struct {
	Insts []Inst
	pos   int
}

// NewSliceStream returns a stream over the given instructions.
func NewSliceStream(insts []Inst) *SliceStream { return &SliceStream{Insts: insts} }

// Next implements Stream.
func (s *SliceStream) Next(out *Inst) bool {
	if s.pos >= len(s.Insts) {
		return false
	}
	*out = s.Insts[s.pos]
	s.pos++
	return true
}

// Reset implements Stream.
func (s *SliceStream) Reset() { s.pos = 0 }

// Count drains the stream and returns the number of instructions, resetting
// it afterwards. Intended for tests and workload statistics.
func Count(s Stream) int {
	var in Inst
	n := 0
	for s.Next(&in) {
		n++
	}
	s.Reset()
	return n
}

// CountSVE drains the stream and returns total and SVE instruction counts,
// resetting it afterwards. The SVE fraction is the paper's Fig. 1 metric.
func CountSVE(s Stream) (total, sve int) {
	var in Inst
	for s.Next(&in) {
		total++
		if in.SVE {
			sve++
		}
	}
	s.Reset()
	return total, sve
}
