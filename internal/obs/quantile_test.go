package obs

import (
	"math"
	"testing"
)

func TestBucketLowerBound(t *testing.T) {
	if got := BucketLowerBound(0); got != 0 {
		t.Fatalf("bucket 0 lower = %v, want 0", got)
	}
	for i := 1; i < NumHistBuckets; i++ {
		want := math.Pow(2, float64(i-1))
		if got := BucketLowerBound(i); got != want {
			t.Fatalf("bucket %d lower = %v, want %v", i, got, want)
		}
	}
	// Lower bound and upper bound agree on the bucket geometry: bucket i's
	// inclusive integer upper bound 2^i - 1 sits just under bucket i+1's
	// lower bound 2^i.
	for i := 1; i < NumHistBuckets-2; i++ {
		if BucketUpperBound(i)+1 != BucketLowerBound(i+1) {
			t.Fatalf("bucket %d: upper %v and next lower %v disagree", i, BucketUpperBound(i), BucketLowerBound(i+1))
		}
	}
}

// TestQuantileBucketEdges pins the interpolation at exact bucket edges: a
// rank landing precisely on a bucket's cumulative count must yield exactly
// that bucket's continuous upper bound 2^k, q=0 the first occupied bucket's
// lower bound, and q=1 the last occupied bucket's upper bound.
func TestQuantileBucketEdges(t *testing.T) {
	buckets := make([]int64, NumHistBuckets)
	buckets[3] = 5 // values in [4, 8)
	buckets[4] = 5 // values in [8, 16)

	cases := []struct {
		q    float64
		want float64
	}{
		{0, 4},      // lower edge of first occupied bucket
		{0.5, 8},    // rank 5 == cumulative count of bucket 3: exactly its upper bound
		{1, 16},     // upper edge of last occupied bucket
		{0.25, 6},   // rank 2.5, halfway through bucket 3: 4 + 4*(2.5/5)
		{0.75, 12},  // rank 7.5, halfway through bucket 4: 8 + 8*(2.5/5)
		{-0.5, 4},   // q clamps to 0
		{1.5, 16},   // q clamps to 1
		{0.1, 4.8},  // rank 1: 4 + 4*(1/5)
		{0.9, 14.4}, // rank 9: 8 + 8*(4/5)
	}
	for _, c := range cases {
		if got := QuantileFromBuckets(buckets, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("q=%v: got %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileDegenerateShapes(t *testing.T) {
	if got := QuantileFromBuckets(nil, 0.5); got != 0 {
		t.Fatalf("empty distribution: got %v, want 0", got)
	}
	zeroes := make([]int64, NumHistBuckets)
	if got := QuantileFromBuckets(zeroes, 0.99); got != 0 {
		t.Fatalf("all-zero distribution: got %v, want 0", got)
	}
	// Bucket 0 holds non-positive observations and always estimates 0.
	b := make([]int64, NumHistBuckets)
	b[0] = 10
	if got := QuantileFromBuckets(b, 1); got != 0 {
		t.Fatalf("bucket-0 distribution: got %v, want 0", got)
	}
	// The open-ended final bucket clamps to its lower bound 2^62.
	b = make([]int64, NumHistBuckets)
	b[NumHistBuckets-1] = 3
	want := math.Pow(2, float64(NumHistBuckets-2))
	if got := QuantileFromBuckets(b, 0.5); got != want {
		t.Fatalf("+Inf bucket: got %v, want %v", got, want)
	}
	// Negative counts (impossible from a registry, possible off the wire
	// before validation) are ignored rather than corrupting ranks.
	b = make([]int64, NumHistBuckets)
	b[2] = -5
	b[3] = 4
	if got := QuantileFromBuckets(b, 1); got != 8 {
		t.Fatalf("negative bucket ignored: got %v, want 8", got)
	}
}

func TestHistogramQuantileAndSummary(t *testing.T) {
	r := NewRegistry(2)
	h := r.Histogram("lat", "latency")
	// 10 observations in [16, 32): bucket 5.
	for i := 0; i < 10; i++ {
		h.Observe(i, 20)
	}
	if got := h.Quantile(0); got != 16 {
		t.Fatalf("q0 = %v, want 16", got)
	}
	if got := h.Quantile(1); got != 32 {
		t.Fatalf("q1 = %v, want 32", got)
	}
	s := SummaryFromBuckets(snapshotBuckets(t, r, "lat"))
	if s.P50 != 16+16*0.5 || s.P90 != 16+16*0.9 || s.P99 != 16+16*0.99 {
		t.Fatalf("summary = %+v", s)
	}
	if (&Histogram{}).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile != 0")
	}
}

func snapshotBuckets(t *testing.T, r *Registry, family string) []int64 {
	t.Helper()
	for _, f := range r.Snapshot().Families {
		if f.Name == family {
			return f.Series[0].Buckets
		}
	}
	t.Fatalf("family %s not found", family)
	return nil
}
