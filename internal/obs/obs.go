// Package obs is the toolkit's stdlib-only telemetry core: per-worker-sharded
// atomic counters and gauges, log-bucketed histograms, cheap span timing, and
// deterministic snapshots with Prometheus text-exposition and JSON encoders.
//
// The design contract mirrors the engine's zero-allocation hot path: every
// metric pre-sizes its shards at registration, recording is a handful of
// atomic adds into the caller's own shard (no locks, no allocation, no
// cross-worker cache-line traffic), and all aggregation — summing shards,
// sorting families, cumulating histogram buckets — happens only at snapshot
// time. Instrumentation is purely observational: nothing in this package
// feeds back into simulation, so enabling it cannot perturb dataset output.
//
// Handles are nil-safe: a nil *Registry returns nil *Counter/*Gauge/
// *Histogram handles, and recording into a nil handle is a no-op — callers
// thread one optional registry through the stack without guarding every
// record site.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Kind discriminates the metric families a Registry holds.
type Kind uint8

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is a last-write-wins instantaneous value.
	KindGauge
	// KindHistogram is a log-bucketed value distribution.
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Label is one metric dimension (e.g. {app="STREAM"}). Label names are
// sanitised at registration; values are escaped at exposition time, so any
// string is safe as a value.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// cslot is one counter shard, padded to a cache line so concurrent workers
// never contend on neighbouring shards.
type cslot struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a sharded monotonic counter handle. Add and Inc are safe for
// concurrent use from any goroutine; passing each worker its own shard index
// keeps the hot path contention-free.
type Counter struct {
	sh   []cslot
	mask int
}

// Add adds delta to the shard's slot. Nil-safe no-op.
func (c *Counter) Add(shard int, delta int64) {
	if c == nil {
		return
	}
	c.sh[shard&c.mask].v.Add(delta)
}

// Inc adds one to the shard's slot. Nil-safe no-op.
func (c *Counter) Inc(shard int) { c.Add(shard, 1) }

// Value returns the counter's total across all shards.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var t int64
	for i := range c.sh {
		t += c.sh[i].v.Load()
	}
	return t
}

// Gauge is an instantaneous float64 value with a single atomic slot: gauges
// are not additive across workers, so they are unsharded and last-write-wins.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Nil-safe no-op.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(floatBits(v))
}

// SetInt stores an integral value.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return floatFromBits(g.bits.Load())
}

// series is one registered (family, label set) pair and its storage.
type series struct {
	labels []Label
	lkey   string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups all series sharing a metric name; a name has exactly one
// kind, help string and (for histograms) exposition scale.
type family struct {
	name   string
	help   string
	kind   Kind
	scale  float64 // histogram exposition divisor; 0 means unscaled
	series map[string]*series
}

// Registry holds the process's metric families. One registry serves one
// collection run; shard count is fixed at construction (rounded up to a
// power of two) so every handle masks its shard index instead of bounds
// checking.
type Registry struct {
	shards int
	mask   int
	mu     sync.Mutex
	fams   map[string]*family
}

// NewRegistry builds a registry whose sharded metrics carry at least the
// given number of shards (minimum 1, rounded up to a power of two). Pass the
// worker-pool size so each worker gets a private slot.
func NewRegistry(shards int) *Registry {
	n := 1
	for n < shards {
		n <<= 1
	}
	return &Registry{shards: n, mask: n - 1, fams: make(map[string]*family)}
}

// lookup resolves (or creates) the series for (name, labels) under kind.
// Metric names and label keys are sanitised; registering one name under two
// kinds (or two histogram scales) panics — that is a programming error, not
// runtime input.
func (r *Registry) lookup(name, help string, kind Kind, scale float64, labels []Label) *series {
	name = SanitizeMetricName(name)
	ls := make([]Label, len(labels))
	for i, l := range labels {
		ls[i] = Label{Key: SanitizeLabelName(l.Key), Value: l.Value}
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	lkey := labelKey(ls)

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, scale: scale, series: make(map[string]*series)}
		r.fams[name] = f
	}
	if f.kind != kind {
		panic("obs: metric " + name + " registered as both " + f.kind.String() + " and " + kind.String())
	}
	if f.scale != scale {
		panic("obs: histogram " + name + " registered with two exposition scales")
	}
	s := f.series[lkey]
	if s == nil {
		s = &series{labels: ls, lkey: lkey}
		switch kind {
		case KindCounter:
			s.c = &Counter{sh: make([]cslot, r.shards), mask: r.mask}
		case KindGauge:
			s.g = &Gauge{}
		case KindHistogram:
			s.h = &Histogram{sh: make([]hshard, r.shards), mask: r.mask}
		}
		f.series[lkey] = s
	}
	return s
}

// Counter registers (or returns the existing) sharded counter for the name
// and label set. Nil-safe: a nil registry returns a nil handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindCounter, 0, labels).c
}

// Gauge registers (or returns the existing) gauge for the name and label set.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindGauge, 0, labels).g
}

// Histogram registers (or returns the existing) log-bucketed histogram for
// the name and label set.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindHistogram, 0, labels).h
}

// TimeScale is the exposition divisor of a TimeHistogram: observations go in
// as integer nanoseconds, the exposition comes out in seconds.
const TimeScale = 1e9

// TimeHistogram registers a histogram that observes integer nanoseconds on
// the hot path but exposes seconds — the Prometheus base unit for time — by
// dividing bucket bounds and the sum by TimeScale at exposition. Storage and
// recording are identical to Histogram (three atomic adds, no float math);
// only the snapshot's Scale and the rendered `le`/`_sum` values differ.
func (r *Registry) TimeHistogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindHistogram, TimeScale, labels).h
}

// labelKey encodes a sorted label set as the series identity string.
func labelKey(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	n := 0
	for _, l := range ls {
		n += len(l.Key) + len(l.Value) + 2
	}
	b := make([]byte, 0, n)
	for _, l := range ls {
		b = append(b, l.Key...)
		b = append(b, 1)
		b = append(b, l.Value...)
		b = append(b, 2)
	}
	return string(b)
}
