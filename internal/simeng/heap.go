package simeng

// seqEvent pairs a completion cycle with a window sequence number.
type seqEvent struct {
	at  int64
	seq int64
}

// seqHeap is a min-heap of seqEvents ordered by completion cycle, used for
// in-flight load data returns.
type seqHeap struct{ a []seqEvent }

func (h *seqHeap) Len() int { return len(h.a) }

// reset empties the heap, retaining the backing array for reuse by the next
// run of a pooled core.
func (h *seqHeap) reset() { h.a = h.a[:0] }

func (h *seqHeap) Push(v seqEvent) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p].at <= h.a[i].at {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *seqHeap) Min() seqEvent { return h.a[0] }

func (h *seqHeap) Pop() seqEvent {
	v := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < last && h.a[l].at < h.a[m].at {
			m = l
		}
		if r < last && h.a[r].at < h.a[m].at {
			m = r
		}
		if m == i {
			break
		}
		h.a[i], h.a[m] = h.a[m], h.a[i]
		i = m
	}
	return v
}
