package armdse_test

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"armdse"
	"armdse/internal/fabric"
	"armdse/internal/obs"
	"armdse/internal/search"
)

// TestRunlogSchemaCoverage generates a runlog through each journaling path
// — fixed sweep, adaptive search, and a 2-worker fleet — checks every file
// with obs.ValidateRunlog, and checks that together they emit exactly the
// record types the validator knows. A record type with no writer, or a
// writer emitting a type the validator lacks, fails here.
func TestRunlogSchemaCoverage(t *testing.T) {
	dir := t.TempDir()
	sweep := filepath.Join(dir, "sweep.runlog.jsonl")
	runFixedSweep(t, sweep)
	adaptive := filepath.Join(dir, "adaptive.runlog.jsonl")
	runAdaptiveSweep(t, adaptive)
	fleet := filepath.Join(dir, "fleet.runlog.jsonl")
	runFleet(t, fleet)

	var emitted []string
	for _, run := range []struct {
		path    string
		require []string
	}{
		{sweep, []string{"config", "heartbeat"}},
		{adaptive, []string{"barrier"}},
		{fleet, []string{"lease", "util", "heartbeat"}},
	} {
		for typ := range validateRunlog(t, run.path, run.require...) {
			emitted = append(emitted, typ)
		}
	}
	slices.Sort(emitted)
	emitted = slices.Compact(emitted)
	if want := obs.RunlogTypes(); !slices.Equal(emitted, want) {
		t.Errorf("journaling paths emit %v, the validator knows %v", emitted, want)
	}
}

func runFixedSweep(t *testing.T, path string) {
	t.Helper()
	j, err := obs.CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	tel := armdse.NewTelemetry(armdse.NewMetricsRegistry(2), j)
	tel.HeartbeatEvery = time.Nanosecond
	suite := armdse.TestSuite()
	if err := tel.JournalMeta(11, 6, 2, 0, "", armdse.SuiteNames(suite)); err != nil {
		t.Fatal(err)
	}
	res, err := armdse.Collect(context.Background(), armdse.CollectOptions{
		Seed: 11, Samples: 6, Workers: 2, Suite: suite, Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tel.JournalSummary(res.Data.Len(), res.Failed, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func runAdaptiveSweep(t *testing.T, path string) {
	t.Helper()
	j, err := obs.CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	suite := armdse.TestSuite()
	apps := armdse.SuiteNames(suite)
	proposer, err := armdse.NewProposer(armdse.ProposeOptions{
		Strategy: search.StrategyUCB, Seed: 11, Budget: 8, Batch: 4, Apps: apps,
	})
	if err != nil {
		t.Fatal(err)
	}
	tel := armdse.NewTelemetry(armdse.NewMetricsRegistry(2), j)
	tel.HeartbeatEvery = time.Nanosecond
	if err := tel.JournalMeta(11, 8, 2, 0, proposer.Digest(), apps); err != nil {
		t.Fatal(err)
	}
	res, err := armdse.Collect(context.Background(), armdse.CollectOptions{
		Seed: 11, Samples: 8, Workers: 2, Suite: suite, Telemetry: tel,
		Batches: proposer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tel.JournalSummary(res.Data.Len(), res.Failed, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func runFleet(t *testing.T, path string) {
	t.Helper()
	dir := t.TempDir()
	coord, err := fabric.NewCoordinator(fabric.CoordConfig{
		Spec:      fabric.NewSpec(11, 12, false),
		Out:       filepath.Join(dir, "fleet.csv"),
		LeaseSize: 2, Expiry: time.Minute,
		HeartbeatEvery: time.Nanosecond,
		Runlog:         path,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	errs := make(chan error, 2)
	for _, name := range []string{"w1", "w2"} {
		go func(name string) {
			errs <- fabric.RunWorker(ctx, fabric.WorkerConfig{
				Coord: srv.URL, Name: name, Threads: 2,
				PollEvery: 10 * time.Millisecond, Client: srv.Client(),
			})
		}(name)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	ds, failed, err := coord.Merge()
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if err := coord.Finish(ds.Len(), failed); err != nil {
		t.Fatal(err)
	}
}

// validateRunlog checks the runlog at path, requiring the given record
// types, and returns its record counts.
func validateRunlog(t *testing.T, path string, require ...string) map[string]int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	counts, err := obs.ValidateRunlog(f, require...)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return counts
}
