package orchestrate

import (
	"context"
	"sync"
	"testing"

	"armdse/internal/params"
	"armdse/internal/workload"
)

// tinySuite returns very small workloads so collection tests stay fast.
func tinySuite() []workload.Workload {
	return []workload.Workload{
		workload.NewSTREAM(workload.STREAMInputs{ArraySize: 512, Times: 1}),
		workload.NewMiniBUDE(workload.MiniBUDEInputs{Atoms: 8, Poses: 16, Iterations: 1, Repeats: 1}),
		workload.NewTeaLeaf(workload.TeaLeafInputs{NX: 8, NY: 8, Steps: 1, CGIters: 2, Dt: 0.004}),
		workload.NewMiniSweep(workload.MiniSweepInputs{NX: 2, NY: 2, NZ: 2, Angles: 4, Groups: 1, Sweeps: 1}),
	}
}

func TestRunOne(t *testing.T) {
	cfg := params.ThunderX2()
	st, err := RunOneOn(BackendSST, cfg, tinySuite()[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles <= 0 || st.Retired <= 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCollectBasics(t *testing.T) {
	res, err := Collect(context.Background(), Options{
		Seed:    1,
		Samples: 8,
		Workers: 4,
		Suite:   tinySuite(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Data.Len()+res.Failed != 8 {
		t.Fatalf("rows %d + failed %d != 8", res.Data.Len(), res.Failed)
	}
	if res.Data.Len() == 0 {
		t.Fatal("no rows collected")
	}
	if res.Data.NumFeatures() != params.NumFeatures {
		t.Errorf("features = %d", res.Data.NumFeatures())
	}
	for _, app := range res.Data.Apps {
		y, err := res.Data.Target(app)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range y {
			if v <= 0 {
				t.Errorf("%s row %d cycles = %g", app, i, v)
			}
		}
	}
}

func TestCollectDeterministic(t *testing.T) {
	opt := Options{Seed: 2, Samples: 5, Workers: 3, Suite: tinySuite()}
	a, err := Collect(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Collect(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Data.Len() != b.Data.Len() {
		t.Fatalf("row counts differ: %d vs %d", a.Data.Len(), b.Data.Len())
	}
	for r := range a.Data.X {
		for c := range a.Data.X[r] {
			if a.Data.X[r][c] != b.Data.X[r][c] {
				t.Fatalf("X[%d][%d] differs", r, c)
			}
		}
		for _, app := range a.Data.Apps {
			if a.Data.Y[app][r] != b.Data.Y[app][r] {
				t.Fatalf("Y[%s][%d] differs: %g vs %g", app, r, a.Data.Y[app][r], b.Data.Y[app][r])
			}
		}
	}
}

func TestCollectProgressAndValidate(t *testing.T) {
	var mu sync.Mutex
	var calls []ProgressEvent
	res, err := Collect(context.Background(), Options{
		Seed:     3,
		Samples:  4,
		Workers:  2,
		Suite:    tinySuite(),
		Validate: true,
		Progress: func(ev ProgressEvent) {
			mu.Lock()
			calls = append(calls, ev)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 4 {
		t.Fatalf("progress calls = %d, want 4", len(calls))
	}
	for i, ev := range calls {
		// The engine serialises Progress, so Done is strictly monotonic.
		if ev.Done != i+1 {
			t.Errorf("call %d: Done = %d, want %d", i, ev.Done, i+1)
		}
		if ev.Total != 4 {
			t.Errorf("call %d: Total = %d, want 4", i, ev.Total)
		}
		if ev.RowsPerSec <= 0 {
			t.Errorf("call %d: RowsPerSec = %g", i, ev.RowsPerSec)
		}
	}
	last := calls[len(calls)-1]
	if last.Cycles <= 0 {
		t.Errorf("final Cycles = %d, want > 0", last.Cycles)
	}
	if last.Failed != res.Failed {
		t.Errorf("final Failed = %d, result says %d", last.Failed, res.Failed)
	}
	if res.Data.Len() == 0 {
		t.Error("no data")
	}
}

func TestCollectCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Collect(ctx, Options{Seed: 4, Samples: 100, Suite: tinySuite()}); err == nil {
		t.Error("cancelled context accepted")
	}
}

func TestCollectOptionErrors(t *testing.T) {
	if _, err := Collect(context.Background(), Options{Samples: 0}); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := Collect(context.Background(), Options{Samples: 1, Suite: []workload.Workload{}}); err == nil {
		t.Error("empty suite accepted")
	}
}

func TestCollectDropsFailingRuns(t *testing.T) {
	// An absurdly small cycle budget fails every run.
	_, err := Collect(context.Background(), Options{
		Seed:            5,
		Samples:         2,
		Suite:           tinySuite(),
		MaxCyclesPerRun: 1,
	})
	if err == nil {
		t.Error("all-failed collection returned no error")
	}
}

func TestProgramCacheSharing(t *testing.T) {
	pc := newProgramCache()
	w := tinySuite()[0]
	p1, err := pc.get(w, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := pc.get(w, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("cache rebuilt an existing program")
	}
	p3, err := pc.get(w, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("cache conflated vector lengths")
	}
	if _, err := pc.get(w, 100, 0); err == nil {
		t.Error("invalid VL accepted")
	}
}
