package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumHistBuckets is the fixed bucket count of every histogram: bucket 0
// holds non-positive values, bucket k (1..62) holds values in
// [2^(k-1), 2^k), and the final bucket holds everything from 2^62 up —
// the +Inf bucket of the Prometheus exposition. Power-of-two bucketing
// turns Observe into one bits.Len64, which keeps the hot path at three
// atomic adds with no float math.
const NumHistBuckets = 64

// hshard is one histogram shard: per-bucket counts plus count/sum, owned by
// one worker on the hot path and only read across workers at snapshot time.
type hshard struct {
	buckets [NumHistBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Histogram is a sharded log-bucketed distribution of int64 observations
// (typically nanoseconds or cycles).
type Histogram struct {
	sh   []hshard
	mask int
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	k := bits.Len64(uint64(v))
	if k >= NumHistBuckets {
		return NumHistBuckets - 1
	}
	return k
}

// BucketUpperBound returns bucket i's inclusive upper bound: 0 for bucket 0,
// 2^i - 1 for the middle buckets, and +Inf for the final bucket. These are
// the `le` values of the Prometheus exposition.
func BucketUpperBound(i int) float64 {
	switch {
	case i <= 0:
		return 0
	case i >= NumHistBuckets-1:
		return math.Inf(1)
	default:
		return float64(uint64(1)<<i - 1)
	}
}

// BucketLowerBound returns bucket i's inclusive lower bound: 0 for bucket 0
// and 2^(i-1) for every later bucket. The final bucket is open-ended above
// its lower bound 2^62.
func BucketLowerBound(i int) float64 {
	if i <= 0 {
		return 0
	}
	if i > NumHistBuckets-1 {
		i = NumHistBuckets - 1
	}
	return float64(uint64(1) << (i - 1))
}

// QuantileFromBuckets estimates the q-quantile (clamped to [0, 1]) of a
// log2-bucketed distribution by linear interpolation inside the bucket that
// holds the target rank, treating bucket k as the continuous interval
// [2^(k-1), 2^k). The interpolation pins exactly at bucket edges: a rank
// landing precisely on a bucket's cumulative count yields that bucket's
// continuous upper bound 2^k, and q=0 yields the first occupied bucket's
// lower bound. Bucket 0 (non-positive observations) always estimates 0, and
// a rank in the open-ended final bucket clamps to its lower bound 2^62.
// Returns 0 for an empty distribution.
func QuantileFromBuckets(buckets []int64, q float64) float64 {
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	var total int64
	for _, n := range buckets {
		if n > 0 {
			total += n
		}
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, n := range buckets {
		if n <= 0 {
			continue
		}
		cum += n
		if float64(cum) < rank {
			continue
		}
		if i == 0 {
			return 0
		}
		lo := BucketLowerBound(i)
		if i >= NumHistBuckets-1 {
			return lo
		}
		frac := (rank - float64(cum-n)) / float64(n)
		if frac < 0 {
			frac = 0
		}
		return lo + lo*frac
	}
	return BucketLowerBound(len(buckets) - 1)
}

// QuantileSummary is the standard p50/p90/p99 triplet of a distribution.
type QuantileSummary struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
}

// SummaryFromBuckets estimates the standard quantile triplet from raw
// (non-cumulative) bucket counts.
func SummaryFromBuckets(buckets []int64) QuantileSummary {
	return QuantileSummary{
		P50: QuantileFromBuckets(buckets, 0.50),
		P90: QuantileFromBuckets(buckets, 0.90),
		P99: QuantileFromBuckets(buckets, 0.99),
	}
}

// Quantile estimates the q-quantile of the histogram's observations across
// all shards. Nil-safe: returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	var buckets [NumHistBuckets]int64
	for i := range h.sh {
		sh := &h.sh[i]
		for b := 0; b < NumHistBuckets; b++ {
			buckets[b] += sh.buckets[b].Load()
		}
	}
	return QuantileFromBuckets(buckets[:], q)
}

// Observe records v into the shard's slot. Nil-safe no-op.
func (h *Histogram) Observe(shard int, v int64) {
	if h == nil {
		return
	}
	s := &h.sh[shard&h.mask]
	s.buckets[bucketOf(v)].Add(1)
	s.count.Add(1)
	s.sum.Add(v)
}

// Count returns the total number of observations across shards.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var t int64
	for i := range h.sh {
		t += h.sh[i].count.Load()
	}
	return t
}

// Sum returns the sum of all observations across shards.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	var t int64
	for i := range h.sh {
		t += h.sh[i].sum.Load()
	}
	return t
}

// Span is an in-flight timing measurement: Start captures the clock, End
// observes the elapsed nanoseconds into the histogram. The pair is two
// time.Now calls and one Observe — cheap enough for per-run engine stages.
type Span struct {
	h     *Histogram
	t0    time.Time
	shard int
}

// Start opens a span that will record into the histogram's shard slot.
// Nil-safe: a span on a nil histogram still times but records nothing.
func (h *Histogram) Start(shard int) Span {
	return Span{h: h, t0: time.Now(), shard: shard}
}

// End records the span's elapsed nanoseconds.
func (s Span) End() {
	s.h.Observe(s.shard, time.Since(s.t0).Nanoseconds())
}

// floatBits/floatFromBits wrap math for the gauge's atomic float storage.
func floatBits(v float64) uint64     { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
