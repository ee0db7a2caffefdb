package main

import (
	"errors"
	"net/http"
	"sort"
	"sync"
	"time"

	"armdse"
	"armdse/internal/orchestrate"
	"armdse/internal/params"
	"armdse/internal/workload"
)

// The wrappers below sit on the program's public seams and only observe:
// every call is forwarded unchanged and every result is returned unchanged.
// The one exception is a set-up probe's workload, which stops the probe's
// run once set-up has been timed (dispatchClock.probe).
// wrap_test.go proves a wrapped run's dataset is byte-identical to an
// unwrapped one for every workload.

// dispatchClock records the first moment a configuration was dispatched —
// the end of set-up.
type dispatchClock struct {
	// onMark, when set, runs once at the first mark: a set-up probe cancels
	// its run there.
	onMark func()
	// probe makes every program build fail once the clock is marked, so a
	// set-up probe's run drains without simulating the configurations
	// already dispatched. Nothing after the mark is timed.
	probe bool

	mu sync.Mutex
	at time.Time
}

func (c *dispatchClock) mark() {
	c.mu.Lock()
	first := c.at.IsZero()
	if first {
		c.at = time.Now()
	}
	c.mu.Unlock()
	if first && c.onMark != nil {
		c.onMark()
	}
}

func (c *dispatchClock) marked() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.at.IsZero()
}

func (c *dispatchClock) when() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.at
}

// watchedWorkload marks the dispatch clock on the first Program call: the
// engine builds a program only when a worker starts its first configuration.
type watchedWorkload struct {
	armdse.Workload
	clock *dispatchClock
}

func (w watchedWorkload) Program(vl int) (*workload.Program, error) {
	w.clock.mark()
	if w.clock.probe {
		return nil, errProbeDone
	}
	return w.Workload.Program(vl)
}

// errProbeDone ends a set-up probe's run at its first dispatch.
var errProbeDone = errors.New("set-up probe done")

// rowInfo is what the benchmark keeps of each completed row for its
// correctness gate.
type rowInfo struct {
	Index     int
	Config    params.Config
	Predicted bool
	Failed    bool
}

// recordingSink forwards every row to the journal sink, remembering each
// row's index, configuration and evaluator verdict. When traced it also
// times each Put as a dataset.put span.
type recordingSink struct {
	inner  armdse.RowSink
	tr     *tracer
	parent int

	mu   sync.Mutex
	rows []rowInfo
}

func (s *recordingSink) Put(row armdse.Row) error {
	id := s.tr.begin("dataset.put", s.parent)
	err := s.inner.Put(row)
	s.tr.end(id)
	s.mu.Lock()
	s.rows = append(s.rows, rowInfo{Index: row.Index, Config: row.Config, Predicted: row.Predicted, Failed: row.Failed()})
	s.mu.Unlock()
	return err
}

// sorted returns the recorded rows in index order.
func (s *recordingSink) sorted() []rowInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]rowInfo(nil), s.rows...)
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// proposer is the slice of search.Proposer the engine consults: the batch
// seam plus both optional extensions, which the wrapper must keep visible.
type proposer interface {
	orchestrate.BatchSource
	orchestrate.Budgeter
	orchestrate.BatchStatsSource
}

// timedBatches times every NextBatch call (the generation barrier every
// simulation worker idles behind) and keeps each generation's BatchStats.
type timedBatches struct {
	inner  proposer
	tr     *tracer
	parent int

	barrierMs []float64
	startAt   []time.Time
	stats     []orchestrate.BatchStats
}

func (b *timedBatches) NextBatch(prior []orchestrate.Row) ([]params.Config, bool) {
	id := b.tr.begin("search.next_batch", b.parent)
	t0 := time.Now()
	batch, ok := b.inner.NextBatch(prior)
	d := time.Since(t0)
	b.tr.end(id)
	if ok && len(batch) > 0 {
		b.barrierMs = append(b.barrierMs, float64(d.Nanoseconds())/1e6)
		b.startAt = append(b.startAt, t0)
		b.stats = append(b.stats, b.inner.LastBatchStats())
	}
	return batch, ok
}

func (b *timedBatches) Budget() int { return b.inner.Budget() }

func (b *timedBatches) LastBatchStats() orchestrate.BatchStats { return b.inner.LastBatchStats() }

// timedTransport times every fabric request per endpoint and counts
// rejections. onLease runs after each /lease round trip until set-up ends.
type timedTransport struct {
	inner   http.RoundTripper
	tr      *tracer
	parent  int
	onLease func()

	mu       sync.Mutex
	requests int
	rejected int
	ms       map[string][]float64
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	id := t.tr.begin("fabric"+path, t.parent)
	t0 := time.Now()
	resp, err := t.inner.RoundTrip(req)
	d := time.Since(t0)
	t.tr.end(id)
	t.mu.Lock()
	t.requests++
	if err != nil || resp.StatusCode >= 400 {
		t.rejected++
	}
	if t.ms == nil {
		t.ms = make(map[string][]float64)
	}
	t.ms[path] = append(t.ms[path], float64(d.Nanoseconds())/1e6)
	t.mu.Unlock()
	if path == "/lease" && err == nil && t.onLease != nil {
		t.onLease()
	}
	return resp, err
}

// memRecorder forwards a core's memory traffic to the backend and keeps
// every Access call, so the same traffic can be replayed against a fresh
// hierarchy to time the memory model alone.
type memRecorder struct {
	armdse.MemoryBackend
	log []memAccess
}

type memAccess struct {
	now   int64
	addr  uint64
	store bool
	ready int64
}

func (m *memRecorder) Access(now int64, addr uint64, store bool) int64 {
	ready := m.MemoryBackend.Access(now, addr, store)
	m.log = append(m.log, memAccess{now: now, addr: addr, store: store, ready: ready})
	return ready
}
