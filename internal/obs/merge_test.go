package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// workerReg builds a small registry standing in for one fleet worker, with
// per-worker-distinct values so merge arithmetic is checkable.
func workerReg(t *testing.T, id int) Snapshot {
	t.Helper()
	r := NewRegistry(2)
	c := r.Counter("armdse_runs_total", "runs", L("app", "STREAM"))
	c.Add(0, int64(10*(id+1)))
	c.Add(1, 1)
	r.Gauge("armdse_inflight", "in flight").Set(float64(id + 1))
	h := r.TimeHistogram("armdse_config_wall_nanoseconds", "wall")
	for i := 0; i <= id; i++ {
		h.Observe(0, int64(1000*(i+1)))
	}
	return r.Snapshot()
}

func TestMergeSnapshotsSemantics(t *testing.T) {
	snaps := []WorkerSnapshot{
		{Worker: "w0", Snap: workerReg(t, 0)},
		{Worker: "w1", Snap: workerReg(t, 1)},
	}
	merged, err := MergeSnapshots(snaps)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	byName := map[string]FamilySnapshot{}
	for _, f := range merged.Families {
		byName[f.Name] = f
	}

	runs := byName["armdse_runs_total"]
	if len(runs.Series) != 3 {
		t.Fatalf("runs series = %d, want 3 (merged + 2 workers)", len(runs.Series))
	}
	// Merged series has the base labels only and the summed total; worker
	// series carry worker labels and raw per-shard breakdowns.
	var mergedTotal float64
	var workerSeries int
	for _, s := range runs.Series {
		hasWorker := false
		for _, l := range s.Labels {
			if l.Key == "worker" {
				hasWorker = true
			}
		}
		if hasWorker {
			workerSeries++
			if len(s.PerShard) == 0 {
				t.Errorf("worker series lost PerShard: %+v", s)
			}
		} else {
			mergedTotal = s.Value
			if len(s.PerShard) != 0 {
				t.Errorf("merged series kept PerShard: %+v", s)
			}
		}
	}
	if workerSeries != 2 {
		t.Fatalf("worker series = %d, want 2", workerSeries)
	}
	if mergedTotal != 11+21 {
		t.Fatalf("merged counter = %v, want 32", mergedTotal)
	}

	gauge := byName["armdse_inflight"]
	var gaugeMerged float64
	for _, s := range gauge.Series {
		if len(s.Labels) == 0 {
			gaugeMerged = s.Value
		}
	}
	if gaugeMerged != 1+2 {
		t.Fatalf("merged gauge = %v, want 3", gaugeMerged)
	}

	hist := byName["armdse_config_wall_nanoseconds"]
	if hist.Scale != TimeScale {
		t.Fatalf("merged histogram scale = %v, want %v", hist.Scale, TimeScale)
	}
	for _, s := range hist.Series {
		if len(s.Labels) == 0 && s.Count != 3 {
			t.Fatalf("merged histogram count = %d, want 3", s.Count)
		}
	}
}

func TestMergeSnapshotsReplacesWorkerLabel(t *testing.T) {
	in := Snapshot{Families: []FamilySnapshot{{
		Name: "m", Kind: "counter",
		Series: []SeriesSnapshot{{Labels: []Label{L("worker", "stale"), L("app", "a")}, Value: 4}},
	}}}
	merged, err := MergeSnapshots([]WorkerSnapshot{{Worker: "fresh", Snap: in}})
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	for _, s := range merged.Families[0].Series {
		for _, l := range s.Labels {
			if l.Key == "worker" && l.Value != "fresh" {
				t.Fatalf("stale worker label survived: %+v", s.Labels)
			}
		}
	}
}

func TestMergeSnapshotsErrors(t *testing.T) {
	a := workerReg(t, 0)
	if _, err := MergeSnapshots([]WorkerSnapshot{{Worker: "w", Snap: a}, {Worker: "w", Snap: a}}); err == nil {
		t.Fatal("duplicate worker accepted")
	}
	kindA := Snapshot{Families: []FamilySnapshot{{Name: "m", Kind: "counter", Series: []SeriesSnapshot{{Value: 1}}}}}
	kindB := Snapshot{Families: []FamilySnapshot{{Name: "m", Kind: "gauge", Series: []SeriesSnapshot{{Value: 1}}}}}
	if _, err := MergeSnapshots([]WorkerSnapshot{{Worker: "a", Snap: kindA}, {Worker: "b", Snap: kindB}}); err == nil {
		t.Fatal("kind conflict accepted")
	}
	scaleA := Snapshot{Families: []FamilySnapshot{{Name: "h", Kind: "histogram", Scale: TimeScale}}}
	scaleB := Snapshot{Families: []FamilySnapshot{{Name: "h", Kind: "histogram"}}}
	if _, err := MergeSnapshots([]WorkerSnapshot{{Worker: "a", Snap: scaleA}, {Worker: "b", Snap: scaleB}}); err == nil {
		t.Fatal("scale conflict accepted")
	}
	bad := Snapshot{Families: []FamilySnapshot{{Name: "m", Kind: "elephant"}}}
	if _, err := MergeSnapshots([]WorkerSnapshot{{Worker: "a", Snap: bad}}); err == nil {
		t.Fatal("invalid snapshot accepted")
	}
}

// permute invokes fn with every permutation of idx (Heap's algorithm).
func permute(idx []int, fn func([]int)) {
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			fn(idx)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				idx[i], idx[k-1] = idx[k-1], idx[i]
			} else {
				idx[0], idx[k-1] = idx[k-1], idx[0]
			}
		}
	}
	rec(len(idx))
}

func TestMergeSnapshotsPermutationByteIdentical(t *testing.T) {
	workers := []WorkerSnapshot{
		{Worker: "w2", Snap: workerReg(t, 2)},
		{Worker: "w0", Snap: workerReg(t, 0)},
		{Worker: "w3", Snap: workerReg(t, 3)},
		{Worker: "w1", Snap: workerReg(t, 1)},
	}
	ref, err := MergeSnapshots(workers)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	refBytes, err := json.Marshal(ref)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	perms := 0
	permute([]int{0, 1, 2, 3}, func(idx []int) {
		perms++
		shuffled := make([]WorkerSnapshot, len(idx))
		for i, j := range idx {
			shuffled[i] = workers[j]
		}
		m, err := MergeSnapshots(shuffled)
		if err != nil {
			t.Fatalf("merge perm %v: %v", idx, err)
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("encode perm %v: %v", idx, err)
		}
		if !bytes.Equal(b, refBytes) {
			t.Fatalf("permutation %v produced different bytes", idx)
		}
	})
	if perms != 24 {
		t.Fatalf("visited %d permutations, want 24", perms)
	}
}
