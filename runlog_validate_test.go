package armdse_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"armdse"
	"armdse/internal/fabric"
)

// TestRunlogSchemaCoverage generates a runlog through each journaling path
// the smoke scripts exercise — fixed sweep, adaptive search, and a 2-worker
// fleet — runs every file through scripts/validate_runlog.py, and checks
// that together they emit every record type scripts/runlog.schema.json
// declares. A new record type that skips the schema, or a schema type no
// path can produce, fails here rather than in CI shell scripts.
func TestRunlogSchemaCoverage(t *testing.T) {
	python, err := exec.LookPath("python3")
	if err != nil {
		t.Skip("python3 not available")
	}
	dir := t.TempDir()

	sweep := filepath.Join(dir, "sweep.runlog.jsonl")
	runFixedSweep(t, sweep)
	validateRunlog(t, python, sweep, "config,heartbeat")

	adaptive := filepath.Join(dir, "adaptive.runlog.jsonl")
	runAdaptiveSweep(t, adaptive)
	validateRunlog(t, python, adaptive, "barrier")

	fleet := filepath.Join(dir, "fleet.runlog.jsonl")
	runFleet(t, fleet)
	validateRunlog(t, python, fleet, "lease,util,heartbeat")

	emitted := map[string]bool{}
	for _, path := range []string{sweep, adaptive, fleet} {
		for _, typ := range recordTypes(t, path) {
			emitted[typ] = true
		}
	}
	schema := schemaTypes(t)
	for _, typ := range schema {
		if !emitted[typ] {
			t.Errorf("schema type %q not produced by any journaling path", typ)
		}
	}
	if len(emitted) != len(schema) {
		t.Errorf("emitted types %v, schema declares %v", keys(emitted), schema)
	}
}

func runFixedSweep(t *testing.T, path string) {
	t.Helper()
	j, err := armdse.CreateRunJournal(path)
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
	j, err := armdse.CreateRunJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	suite := armdse.TestSuite()
	apps := armdse.SuiteNames(suite)
	proposer, err := armdse.NewProposer(armdse.ProposeOptions{
		Strategy: armdse.StrategyUCB, Seed: 11, Budget: 8, Batch: 4, Apps: apps,
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
		LeaseSize: 4, Chunk: 2, Expiry: time.Minute,
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
	if _, _, err := coord.Merge(); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
}

// validateRunlog shells out to the Python validator the smoke scripts use,
// requiring the given record types to appear.
func validateRunlog(t *testing.T, python, path, require string) {
	t.Helper()
	cmd := exec.Command(python, "scripts/validate_runlog.py", "--require", require, path)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("validate_runlog.py %s: %v\n%s", path, err, out)
	}
}

func recordTypes(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	for dec.More() {
		var rec struct {
			Type string `json:"type"`
		}
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		seen[rec.Type] = true
	}
	return keys(seen)
}

func schemaTypes(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile("scripts/runlog.schema.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Records map[string]json.RawMessage `json:"records"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return keys(mapKeysToBool(doc.Records))
}

func mapKeysToBool(m map[string]json.RawMessage) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
