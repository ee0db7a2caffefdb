package simeng

// nextPow2 returns the smallest power of two >= n (n >= 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// ring is a fixed-capacity FIFO. Pushing past capacity panics: callers gate
// on Full, and overflow indicates a structural accounting bug.
//
// The backing buffer is sized to the next power of two above the logical
// capacity so indexing is a mask instead of an integer division (the queues
// sit on the per-instruction hot path), and it is retained across reset:
// a pooled core re-slices the buffer it already owns instead of allocating
// a new one per run.
type ring[T any] struct {
	buf   []T
	head  int
	count int
	// cap is the logical capacity; len(buf) is its power-of-two ceiling.
	cap int
}

func newRing[T any](capacity int) ring[T] {
	var r ring[T]
	r.reset(capacity)
	return r
}

// reset empties the ring and sets its logical capacity, reusing the backing
// buffer whenever it is already large enough.
func (r *ring[T]) reset(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	n := nextPow2(capacity)
	if cap(r.buf) >= n {
		r.buf = r.buf[:n]
	} else {
		r.buf = make([]T, n)
	}
	r.cap = capacity
	r.head, r.count = 0, 0
}

func (r *ring[T]) Empty() bool { return r.count == 0 }
func (r *ring[T]) Full() bool  { return r.count == r.cap }
func (r *ring[T]) Len() int    { return r.count }

func (r *ring[T]) Push(v T) {
	if r.Full() {
		panic("simeng: ring overflow")
	}
	r.buf[(r.head+r.count)&(len(r.buf)-1)] = v
	r.count++
}

// Peek returns a pointer to the head element; mutations persist.
func (r *ring[T]) Peek() *T {
	if r.Empty() {
		panic("simeng: peek of empty ring")
	}
	return &r.buf[r.head]
}

func (r *ring[T]) Pop() T {
	if r.Empty() {
		panic("simeng: pop of empty ring")
	}
	v := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.count--
	return v
}

// Drop discards the head element without copying it out — the fast path for
// callers that already consumed it through Peek.
func (r *ring[T]) Drop() {
	if r.Empty() {
		panic("simeng: drop of empty ring")
	}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.count--
}
