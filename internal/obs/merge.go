package obs

import (
	"fmt"
	"sort"
)

// WorkerSnapshot pairs a worker's name with the registry snapshot it
// reported — the unit MergeSnapshots consumes.
type WorkerSnapshot struct {
	Worker string
	Snap   Snapshot
}

// MergeSnapshots combines per-worker registry snapshots into one fleet view.
// For every family the output carries two layers of series: a fleet-merged
// series per base label set (counters and gauges summed, histogram buckets,
// counts and sums added element-wise) and one series per contributing worker
// with a `worker=<name>` label appended, preserving each worker's raw
// numbers. Any `worker` label already present in an input series is replaced
// by the reporting worker's name, and the merged series drops PerShard
// breakdowns (shard indices are not comparable across processes).
//
// The merge is deterministic and order-independent: inputs are sorted by
// worker name before any accumulation, so every permutation of the same
// snapshots yields byte-identical JSON. Duplicate worker names and
// conflicting family kinds or scales are errors.
func MergeSnapshots(workers []WorkerSnapshot) (Snapshot, error) {
	sorted := append([]WorkerSnapshot(nil), workers...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Worker < sorted[j].Worker })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Worker == sorted[i-1].Worker {
			return Snapshot{}, fmt.Errorf("obs: merge: duplicate worker %q", sorted[i].Worker)
		}
	}

	type mergedSeries struct {
		merged    SeriesSnapshot
		perWorker []SeriesSnapshot
	}
	type mergedFamily struct {
		name, help, kind string
		scale            float64
		series           map[string]*mergedSeries
		order            []string
	}
	fams := make(map[string]*mergedFamily)
	var order []string

	for _, ws := range sorted {
		if err := ws.Snap.Validate(); err != nil {
			return Snapshot{}, fmt.Errorf("obs: merge: worker %q: %w", ws.Worker, err)
		}
		for _, f := range ws.Snap.Families {
			mf := fams[f.Name]
			if mf == nil {
				mf = &mergedFamily{name: f.Name, help: f.Help, kind: f.Kind, scale: f.Scale, series: make(map[string]*mergedSeries)}
				fams[f.Name] = mf
				order = append(order, f.Name)
			} else {
				if mf.kind != f.Kind {
					return Snapshot{}, fmt.Errorf("obs: merge: family %s: kind %q vs %q", f.Name, mf.kind, f.Kind)
				}
				if mf.scale != f.Scale {
					return Snapshot{}, fmt.Errorf("obs: merge: family %s: scale %v vs %v", f.Name, mf.scale, f.Scale)
				}
				if mf.help == "" {
					mf.help = f.Help
				}
			}
			for _, s := range f.Series {
				base := make([]Label, 0, len(s.Labels))
				for _, l := range s.Labels {
					if l.Key != "worker" {
						base = append(base, l)
					}
				}
				key := labelKey(base)
				ms := mf.series[key]
				if ms == nil {
					ms = &mergedSeries{merged: SeriesSnapshot{Labels: base}}
					mf.series[key] = ms
					mf.order = append(mf.order, key)
				}
				switch f.Kind {
				case KindHistogram.String():
					if len(s.Buckets) > len(ms.merged.Buckets) {
						grown := make([]int64, len(s.Buckets))
						copy(grown, ms.merged.Buckets)
						ms.merged.Buckets = grown
					}
					for b, n := range s.Buckets {
						ms.merged.Buckets[b] += n
					}
					ms.merged.Count += s.Count
					ms.merged.Sum += s.Sum
				default:
					ms.merged.Value += s.Value
				}
				pw := SeriesSnapshot{
					Labels:   append(append(make([]Label, 0, len(base)+1), base...), L("worker", ws.Worker)),
					Value:    s.Value,
					PerShard: append([]int64(nil), s.PerShard...),
					Buckets:  append([]int64(nil), s.Buckets...),
					Count:    s.Count,
					Sum:      s.Sum,
				}
				sortLabels(pw.Labels)
				ms.perWorker = append(ms.perWorker, pw)
			}
		}
	}

	sort.Strings(order)
	out := Snapshot{Families: make([]FamilySnapshot, 0, len(order))}
	for _, name := range order {
		mf := fams[name]
		fs := FamilySnapshot{Name: mf.name, Help: mf.help, Kind: mf.kind, Scale: mf.scale}
		for _, key := range mf.order {
			ms := mf.series[key]
			fs.Series = append(fs.Series, ms.merged)
			fs.Series = append(fs.Series, ms.perWorker...)
		}
		sort.Slice(fs.Series, func(i, j int) bool {
			return labelKey(fs.Series[i].Labels) < labelKey(fs.Series[j].Labels)
		})
		out.Families = append(out.Families, fs)
	}
	return out, nil
}
