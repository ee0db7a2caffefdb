package simeng

import "testing"

// TestRingResetRetainsStorage pins the pooling contract of the inter-stage
// queues: reset must empty the ring and retarget its logical capacity
// without giving up a backing buffer that is already big enough — a pooled
// core cycling between large and small configurations must not reallocate.
func TestRingResetRetainsStorage(t *testing.T) {
	r := newRing[int](100) // buffer rounds up to 128
	for i := 0; i < 100; i++ {
		r.Push(i)
	}
	big := cap(r.buf)
	if big < 128 {
		t.Fatalf("cap = %d, want >= 128", big)
	}

	r.reset(5)
	if !r.Empty() || r.Len() != 0 {
		t.Errorf("reset ring not empty: len = %d", r.Len())
	}
	if cap(r.buf) != big {
		t.Errorf("shrinking reset reallocated: cap %d -> %d", big, cap(r.buf))
	}
	for i := 0; i < 5; i++ {
		r.Push(i)
	}
	if !r.Full() {
		t.Error("ring not full at its new logical capacity")
	}

	// Growing past the retained buffer must still work.
	r.reset(300)
	for i := 0; i < 300; i++ {
		r.Push(i)
	}
	if r.Pop() != 0 || r.Pop() != 1 {
		t.Error("FIFO order broken after grow")
	}
}

// TestHeapResetRetainsStorage pins the same contract for the load-return
// heap: reset empties it but keeps the backing array.
func TestHeapResetRetainsStorage(t *testing.T) {
	var sh seqHeap
	for i := int64(200); i > 0; i-- {
		sh.Push(seqEvent{at: i, seq: i})
	}
	big := cap(sh.a)
	sh.reset()
	if sh.Len() != 0 {
		t.Errorf("reset seqHeap len = %d", sh.Len())
	}
	if cap(sh.a) != big {
		t.Errorf("seqHeap reset reallocated: cap %d -> %d", big, cap(sh.a))
	}
	sh.Push(seqEvent{at: 7, seq: 1})
	if cap(sh.a) != big {
		t.Errorf("post-reset push reallocated: cap %d -> %d", big, cap(sh.a))
	}
	if sh.Min().at != 7 {
		t.Errorf("Min.at = %d, want 7", sh.Min().at)
	}
}
