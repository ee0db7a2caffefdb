package main

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"armdse"
	"armdse/internal/fabric"
)

// TestAnalyzeRealRunlogs reads runlogs written in-process by both real
// writers — the collection engine (a fixed sweep and a ucb adaptive sweep)
// and a 2-worker coordinator fleet — rather than hand-built fixtures, so a
// writer whose records drift from what dsereport decodes fails here.
func TestAnalyzeRealRunlogs(t *testing.T) {
	dir := t.TempDir()

	sweep := filepath.Join(dir, "sweep.runlog.jsonl")
	writeEngineRunlog(t, sweep, 6, nil)
	a := analyzeOK(t, sweep, 6)
	if a.Report.Fleet || a.Report.Workers != 2 || a.Report.Barriers != nil {
		t.Errorf("fixed sweep report = %+v", a.Report)
	}

	adaptive := filepath.Join(dir, "adaptive.runlog.jsonl")
	proposer, err := armdse.NewProposer(armdse.ProposeOptions{
		Strategy: armdse.StrategyUCB, Seed: 11, Budget: 8, Batch: 4,
		Apps: armdse.SuiteNames(armdse.TestSuite()),
	})
	if err != nil {
		t.Fatal(err)
	}
	writeEngineRunlog(t, adaptive, 8, proposer)
	a = analyzeOK(t, adaptive, 8)
	data, err := os.ReadFile(adaptive)
	if err != nil {
		t.Fatal(err)
	}
	barriers := strings.Count(string(data), `{"type":"barrier"`)
	if a.Report.Barriers == nil || barriers == 0 || a.Report.Barriers.Generations != barriers {
		t.Errorf("adaptive barriers = %+v, runlog has %d barrier records", a.Report.Barriers, barriers)
	}

	fleet := filepath.Join(dir, "fleet.runlog.jsonl")
	writeFleetRunlog(t, fleet, 12)
	a = analyzeOK(t, fleet, 12)
	if !a.Report.Fleet || a.Report.Workers != 2 || len(a.Report.WorkerUtil) != 2 {
		t.Errorf("fleet report = %+v", a.Report)
	}
}

// analyzeOK analyzes path and checks that every sample is accounted for.
func analyzeOK(t *testing.T, path string, samples int) *runAnalysis {
	t.Helper()
	a, err := analyzeRunlog(path)
	if err != nil {
		t.Fatal(err)
	}
	if r := a.Report; r.Rows+r.Failed != samples || r.Samples != samples {
		t.Errorf("%s: rows %d + failed %d of %d samples", filepath.Base(path), r.Rows, r.Failed, r.Samples)
	}
	return a
}

// writeEngineRunlog runs a 2-worker collection over the test suite with its
// runlog at path: a fixed sweep, or adaptive batches from proposer.
func writeEngineRunlog(t *testing.T, path string, samples int, proposer *armdse.Proposer) {
	t.Helper()
	j, err := armdse.CreateRunJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	suite := armdse.TestSuite()
	tel := armdse.NewTelemetry(armdse.NewMetricsRegistry(2), j)
	opt := armdse.CollectOptions{Seed: 11, Samples: samples, Workers: 2, Suite: suite, Telemetry: tel}
	search := ""
	if proposer != nil {
		opt.Batches, search = proposer, proposer.Digest()
	}
	if err := tel.JournalMeta(11, samples, 2, 0, search, armdse.SuiteNames(suite)); err != nil {
		t.Fatal(err)
	}
	res, err := armdse.Collect(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := tel.JournalSummary(res.Data.Len(), res.Failed, time.Second); err != nil {
		t.Fatal(err)
	}
}

// writeFleetRunlog runs a coordinator with two in-process workers over the
// test suite, its runlog at path.
func writeFleetRunlog(t *testing.T, path string, samples int) {
	t.Helper()
	coord, err := fabric.NewCoordinator(fabric.CoordConfig{
		Spec:      fabric.NewSpec(11, samples, false),
		Out:       filepath.Join(t.TempDir(), "fleet.csv"),
		LeaseSize: 2, Expiry: time.Minute,
		HeartbeatEvery: time.Nanosecond,
		Runlog:         path,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	errs := make(chan error, 2)
	for _, name := range []string{"w1", "w2"} {
		go func(name string) {
			errs <- fabric.RunWorker(ctx, fabric.WorkerConfig{
				Coord: srv.URL, Name: name, Threads: 1,
				PollEvery: 10 * time.Millisecond, Client: srv.Client(),
			})
		}(name)
	}
	for range 2 {
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
