package obs

import (
	"math"
	"slices"
	"sync"
	"testing"
)

// perShard returns the per-shard breakdown of the registry's only series.
func perShard(t *testing.T, r *Registry) []int64 {
	t.Helper()
	snap := r.Snapshot()
	if len(snap.Families) != 1 || len(snap.Families[0].Series) != 1 {
		t.Fatalf("snapshot = %+v, want one series", snap)
	}
	return snap.Families[0].Series[0].PerShard
}

func TestCounterShardingAndTotals(t *testing.T) {
	r := NewRegistry(4)
	c := r.Counter("runs_total", "runs")
	c.Add(0, 3)
	c.Inc(1)
	c.Inc(1)
	c.Add(3, 10)
	if got := c.Value(); got != 15 {
		t.Errorf("Value = %d, want 15", got)
	}
	// Shard indices mask, so out-of-range workers wrap instead of panicking.
	c.Inc(4)
	if got := perShard(t, r); !slices.Equal(got, []int64{4, 2, 0, 10}) {
		t.Errorf("per-shard counts = %v, want [4 2 0 10]", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry(8)
	c := r.Counter("concurrent_total", "")
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc(w)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != 8*perWorker {
		t.Errorf("Value = %d, want %d", got, 8*perWorker)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry returned non-nil handles")
	}
	// None of these may panic.
	c.Add(0, 1)
	c.Inc(3)
	g.Set(1.5)
	g.SetInt(7)
	h.Observe(0, 42)
	sp := h.Start(2)
	sp.End()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil handles reported non-zero values")
	}
	if snap := r.Snapshot(); len(snap.Families) != 0 {
		t.Error("nil registry snapshot non-empty")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry(1)
	g := r.Gauge("eta_seconds", "")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("Value = %g, want 2.5", got)
	}
	g.SetInt(-3)
	if got := g.Value(); got != -3 {
		t.Errorf("Value = %g, want -3", got)
	}
}

func TestRegistryShardRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {7, 8}, {8, 8}, {9, 16},
	} {
		r := NewRegistry(tc.in)
		r.Counter("runs_total", "")
		if got := len(perShard(t, r)); got != tc.want {
			t.Errorf("NewRegistry(%d) has %d shards, want %d", tc.in, got, tc.want)
		}
	}
}

func TestRegistryReusesSeries(t *testing.T) {
	r := NewRegistry(2)
	a := r.Counter("m", "", L("app", "STREAM"))
	b := r.Counter("m", "", L("app", "STREAM"))
	if a != b {
		t.Error("same (name, labels) returned distinct counters")
	}
	other := r.Counter("m", "", L("app", "TeaLeaf"))
	if a == other {
		t.Error("distinct label values conflated")
	}
	// Label order must not matter for series identity.
	x := r.Counter("multi", "", L("b", "2"), L("a", "1"))
	y := r.Counter("multi", "", L("a", "1"), L("b", "2"))
	if x != y {
		t.Error("label order changed series identity")
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry(1)
	r.Counter("clash", "")
	defer func() {
		if recover() == nil {
			t.Error("kind conflict did not panic")
		}
	}()
	r.Gauge("clash", "")
}

func TestHistogramBucketBoundaries(t *testing.T) {
	// Exhaustive around every power-of-two edge: v = 2^(k-1) is the first
	// value of bucket k, v = 2^k - 1 the last.
	for _, tc := range []struct {
		v    int64
		want int
	}{
		{math.MinInt64, 0}, {-1, 0}, {0, 0},
		{1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{255, 8}, {256, 9},
		{1 << 61, 62}, {1<<62 - 1, 62},
		{1 << 62, 63}, {math.MaxInt64, 63},
	} {
		if got := bucketOf(tc.v); got != tc.want {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
	// Every positive value lands in the bucket whose bound bracket it.
	for k := 1; k < NumHistBuckets-1; k++ {
		lo := int64(1) << (k - 1)
		if got := bucketOf(lo); got != k {
			t.Errorf("bucketOf(2^%d) = %d, want %d", k-1, got, k)
		}
		hi := int64(1)<<k - 1
		if got := bucketOf(hi); got != k {
			t.Errorf("bucketOf(2^%d-1) = %d, want %d", k, got, k)
		}
	}
}

func TestBucketUpperBound(t *testing.T) {
	if got := BucketUpperBound(0); got != 0 {
		t.Errorf("BucketUpperBound(0) = %g, want 0", got)
	}
	if got := BucketUpperBound(3); got != 7 {
		t.Errorf("BucketUpperBound(3) = %g, want 7", got)
	}
	if got := BucketUpperBound(NumHistBuckets - 1); !math.IsInf(got, 1) {
		t.Errorf("BucketUpperBound(last) = %g, want +Inf", got)
	}
	// Bounds are consistent with bucketOf: every bucket's upper bound maps
	// back into that bucket. Beyond 2^53 the bound 2^k-1 is no longer exactly
	// representable as float64, so the round-trip only holds below that.
	for k := 1; k <= 53; k++ {
		ub := BucketUpperBound(k)
		if got := bucketOf(int64(ub)); got != k {
			t.Errorf("bucketOf(BucketUpperBound(%d)=%g) = %d", k, ub, got)
		}
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	r := NewRegistry(2)
	h := r.Histogram("lat", "")
	h.Observe(0, 1)   // bucket 1
	h.Observe(1, 5)   // bucket 3
	h.Observe(0, 5)   // bucket 3, other shard
	h.Observe(1, 0)   // bucket 0
	h.Observe(0, -10) // bucket 0
	if got := h.Count(); got != 5 {
		t.Errorf("Count = %d, want 5", got)
	}
	if got := h.Sum(); got != 1 {
		t.Errorf("Sum = %d, want 1", got)
	}
	snap := r.Snapshot()
	if len(snap.Families) != 1 || len(snap.Families[0].Series) != 1 {
		t.Fatalf("snapshot shape: %+v", snap)
	}
	s := snap.Families[0].Series[0]
	if s.Buckets[0] != 2 || s.Buckets[1] != 1 || s.Buckets[3] != 2 {
		t.Errorf("buckets = %v", s.Buckets[:8])
	}
	if s.Count != 5 || s.Sum != 1 {
		t.Errorf("count/sum = %d/%d", s.Count, s.Sum)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry(2)
		// Register in an order unlike the sorted one.
		r.Counter("zzz_total", "", L("app", "b"))
		r.Counter("zzz_total", "", L("app", "a"))
		r.Gauge("mmm", "")
		r.Histogram("aaa_ns", "")
		r.Counter("zzz_total", "", L("app", "c")).Add(1, 7)
		return r
	}
	snap := build().Snapshot()
	if len(snap.Families) != 3 {
		t.Fatalf("families = %d", len(snap.Families))
	}
	wantNames := []string{"aaa_ns", "mmm", "zzz_total"}
	for i, f := range snap.Families {
		if f.Name != wantNames[i] {
			t.Errorf("family[%d] = %s, want %s", i, f.Name, wantNames[i])
		}
	}
	apps := snap.Families[2].Series
	if len(apps) != 3 || apps[0].Labels[0].Value != "a" || apps[2].Labels[0].Value != "c" {
		t.Errorf("series order: %+v", apps)
	}
	if apps[2].Value != 7 || apps[2].PerShard[1] != 7 {
		t.Errorf("series value/per-shard: %+v", apps[2])
	}
}
