package obs

import (
	"fmt"
	"math"
	"sort"
)

// SeriesSnapshot is one (label set, value) observation of a family at
// snapshot time.
type SeriesSnapshot struct {
	// Labels is the series' sorted label set.
	Labels []Label `json:"labels,omitempty"`
	// Value carries the counter total or gauge value.
	Value float64 `json:"value"`
	// PerShard is the counter's per-shard breakdown (counters only) —
	// shard i is worker i's contribution.
	PerShard []int64 `json:"per_shard,omitempty"`
	// Buckets are the histogram's non-cumulative per-bucket counts
	// (histograms only); bucket bounds come from BucketUpperBound.
	Buckets []int64 `json:"buckets,omitempty"`
	// Count and Sum summarise the histogram's observations.
	Count int64 `json:"count,omitempty"`
	Sum   int64 `json:"sum,omitempty"`
}

// FamilySnapshot is one metric family with all its series.
type FamilySnapshot struct {
	Name string `json:"name"`
	Help string `json:"help,omitempty"`
	Kind string `json:"kind"`
	// Scale is the histogram family's exposition divisor (e.g. TimeScale for
	// nanosecond observations exposed as seconds); 0 means unscaled.
	Scale  float64          `json:"scale,omitempty"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot is a deterministic point-in-time view of a registry: families
// sorted by name, series sorted by label identity, shards pre-aggregated.
// Two snapshots of identical recorded state marshal to identical JSON.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// sortLabels orders a label set by key then value — the canonical order the
// registry maintains for registered series.
func sortLabels(ls []Label) {
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].Key != ls[j].Key {
			return ls[i].Key < ls[j].Key
		}
		return ls[i].Value < ls[j].Value
	})
}

// Validate checks the structural invariants every registry-produced snapshot
// upholds: non-empty family names, known kinds, finite non-negative scales,
// bucket slices capped at NumHistBuckets, and non-negative bucket, count and
// per-shard tallies. It is the shared gate for snapshots arriving off the
// wire (fabric telemetry payloads).
func (s Snapshot) Validate() error {
	for _, f := range s.Families {
		if f.Name == "" {
			return fmt.Errorf("obs: snapshot family with empty name")
		}
		switch f.Kind {
		case KindCounter.String(), KindGauge.String(), KindHistogram.String():
		default:
			return fmt.Errorf("obs: snapshot family %s: unknown kind %q", f.Name, f.Kind)
		}
		if f.Scale < 0 || math.IsNaN(f.Scale) || math.IsInf(f.Scale, 0) {
			return fmt.Errorf("obs: snapshot family %s: invalid scale %v", f.Name, f.Scale)
		}
		for _, ser := range f.Series {
			for _, l := range ser.Labels {
				if l.Key == "" {
					return fmt.Errorf("obs: snapshot family %s: series with empty label key", f.Name)
				}
			}
			if len(ser.Buckets) > NumHistBuckets {
				return fmt.Errorf("obs: snapshot family %s: %d buckets exceeds %d", f.Name, len(ser.Buckets), NumHistBuckets)
			}
			if ser.Count < 0 {
				return fmt.Errorf("obs: snapshot family %s: negative count %d", f.Name, ser.Count)
			}
			for _, n := range ser.Buckets {
				if n < 0 {
					return fmt.Errorf("obs: snapshot family %s: negative bucket count %d", f.Name, n)
				}
			}
			for _, n := range ser.PerShard {
				if n < 0 {
					return fmt.Errorf("obs: snapshot family %s: negative per-shard count %d", f.Name, n)
				}
			}
		}
	}
	return nil
}

// Snapshot aggregates the registry. It takes the registration lock only to
// enumerate families; reading the shards races benignly with concurrent
// recording (each slot is an atomic load), which is exactly the live-monitor
// semantic: a snapshot is one consistent-enough view of a moving sweep.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := Snapshot{Families: make([]FamilySnapshot, 0, len(fams))}
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind.String(), Scale: f.scale}
		r.mu.Lock()
		ser := make([]*series, 0, len(f.series))
		for _, s := range f.series {
			ser = append(ser, s)
		}
		r.mu.Unlock()
		sort.Slice(ser, func(i, j int) bool { return ser[i].lkey < ser[j].lkey })
		for _, s := range ser {
			ss := SeriesSnapshot{Labels: s.labels}
			switch f.kind {
			case KindCounter:
				ss.PerShard = make([]int64, len(s.c.sh))
				var t int64
				for i := range s.c.sh {
					ss.PerShard[i] = s.c.sh[i].v.Load()
					t += ss.PerShard[i]
				}
				ss.Value = float64(t)
			case KindGauge:
				ss.Value = s.g.Value()
			case KindHistogram:
				ss.Buckets = make([]int64, NumHistBuckets)
				for i := range s.h.sh {
					sh := &s.h.sh[i]
					for b := 0; b < NumHistBuckets; b++ {
						ss.Buckets[b] += sh.buckets[b].Load()
					}
					ss.Count += sh.count.Load()
					ss.Sum += sh.sum.Load()
				}
			}
			fs.Series = append(fs.Series, ss)
		}
		out.Families = append(out.Families, fs)
	}
	return out
}
