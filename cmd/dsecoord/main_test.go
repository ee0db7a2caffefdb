package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"armdse/internal/dataset"
	"armdse/internal/fabric"
	"armdse/internal/orchestrate"
)

// syncBuf is a concurrency-safe writer: the coordinator goroutine writes its
// stderr here while the test polls it for the bound address.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var coordURLRe = regexp.MustCompile(`coordinator: (http://[^\s/]+)/`)

// waitForURL polls the coordinator's stderr for the startup line that
// announces the kernel-assigned port.
func waitForURL(t *testing.T, buf *syncBuf) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := coordURLRe.FindStringSubmatch(buf.String()); m != nil {
			return m[1]
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("coordinator never announced its address:\n%s", buf.String())
	return ""
}

// collectJournal runs the single-process pipeline (dsegen's) into a
// journal at path, skipping the indices skip names: a whole reference run
// with a nil skip, or the journal an interrupted dsegen leaves behind.
func collectJournal(t *testing.T, path string, seed int64, samples int, skip func(int) bool) {
	t.Helper()
	spec := fabric.NewSpec(seed, samples, false)
	sw, err := dataset.CreateStreamAux(path, spec.Features, spec.Apps, spec.Aux, spec.Meta)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orchestrate.Collect(context.Background(), orchestrate.Options{
		Seed: seed, Samples: samples, Suite: spec.Suite(),
		Sink: orchestrate.StreamSink{W: sw}, Skip: skip,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
}

// referenceCSV is the single-process dataset: journal, compact, CSV.
func referenceCSV(t *testing.T, seed int64, samples int) []byte {
	t.Helper()
	journal := filepath.Join(t.TempDir(), "ref.journal")
	collectJournal(t, journal, seed, samples, nil)
	refDS, _, err := dataset.CompactStream(journal)
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	if err := refDS.WriteCSV(&ref); err != nil {
		t.Fatal(err)
	}
	return ref.Bytes()
}

// runFleet runs dsecoord with args on a kernel-assigned port plus two
// in-process workers, and returns its stdout once all three have finished.
func runFleet(t *testing.T, args ...string) string {
	t.Helper()
	var stdout bytes.Buffer
	var stderr syncBuf
	coordErr := make(chan error, 1)
	go func() {
		// Workers poll every 20ms, so half a second of linger guarantees
		// both observe done:true instead of a vanished coordinator.
		coordErr <- run(context.Background(), append([]string{
			"-addr", "127.0.0.1:0", "-expiry", "10s", "-linger", "500ms", "-q",
		}, args...), &stdout, &stderr)
	}()
	url := waitForURL(t, &stderr)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	workerErrs := make([]error, 2)
	for i := range workerErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = fabric.RunWorker(ctx, fabric.WorkerConfig{
				Coord: url, Name: []string{"wa", "wb"}[i], Threads: 1,
				PollEvery: 20 * time.Millisecond,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if err := <-coordErr; err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	return stdout.String()
}

// TestRunFleetMatchesSingleProcess drives the dsecoord entrypoint end to
// end — coordinator on a kernel-assigned port, two in-process workers — and
// checks the written dataset is byte-identical to the single-process
// pipeline, the journal is removed, and the runlog validates structurally
// (meta first, lease events, summary last).
func TestRunFleetMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("simulating real workloads; skipped in -short")
	}
	ref := referenceCSV(t, 3, 6)
	out := filepath.Join(t.TempDir(), "fleet.csv")
	stdout := runFleet(t, "-samples", "6", "-seed", "3", "-out", out, "-lease", "2", "-chunk", "1")

	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Errorf("fleet dataset differs from single-process reference (%d vs %d bytes)", len(got), len(ref))
	}
	if !strings.Contains(stdout, "6 rows x") || !strings.Contains(stdout, "2 workers") {
		t.Errorf("summary = %q", stdout)
	}
	if _, err := os.Stat(out + ".journal"); !os.IsNotExist(err) {
		t.Error("journal not removed")
	}

	// Runlog structure: meta first, summary last, lease events in between.
	lines := readLines(t, out+".runlog.jsonl")
	if len(lines) < 3 {
		t.Fatalf("runlog has %d lines", len(lines))
	}
	types := make([]string, len(lines))
	leaseEvents := map[string]int{}
	for i, line := range lines {
		var rec struct {
			Type  string `json:"type"`
			Event string `json:"event"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("runlog line %d: %v", i+1, err)
		}
		types[i] = rec.Type
		if rec.Type == "lease" {
			leaseEvents[rec.Event]++
		}
	}
	if types[0] != "meta" || types[len(types)-1] != "summary" {
		t.Errorf("runlog frame = %v", types)
	}
	// 3 leases of 2 configs: at least one grant and one complete per lease.
	if leaseEvents["grant"] < 3 || leaseEvents["complete"] != 3 {
		t.Errorf("lease events = %v", leaseEvents)
	}
}

func readLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimRight(string(data), "\n"), "\n")
}

func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	for name, args := range map[string][]string{
		"unknown-flag": {"-nope"},
		"zero-samples": {"-samples", "0", "-q"},
	} {
		if err := run(context.Background(), args, &buf, &buf); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestRunRejectsBadLeaseGeometry: a non-positive -lease, -chunk or -expiry,
// or a chunk larger than its lease, is a usage error — not a silent fallback
// to the defaults — and leaves no runlog or journal behind.
func TestRunRejectsBadLeaseGeometry(t *testing.T) {
	for _, args := range [][]string{
		{"-lease", "-5"}, {"-lease", "0"},
		{"-chunk", "-3"}, {"-chunk", "0"},
		{"-expiry", "-1s"}, {"-expiry", "0s"},
		{"-lease", "4", "-chunk", "8"},
	} {
		dir := t.TempDir()
		var buf bytes.Buffer
		err := run(context.Background(), append([]string{
			"-addr", "127.0.0.1:0", "-samples", "10", "-out", filepath.Join(dir, "ds.csv"), "-q",
		}, args...), &buf, &buf)
		if err == nil || !strings.Contains(err.Error(), args[len(args)-2]) {
			t.Errorf("%v: err = %v, want an error naming %s", args, err, args[len(args)-2])
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			t.Errorf("%v left %s behind", args, e.Name())
		}
	}
}

// TestRunFinishesInterruptedDsegen: an exact dsegen run interrupted with
// part of its journal written is finished by a fleet on the same -out —
// the coordinator resumes the journal, leases only the missing indices,
// and the dataset is byte-identical to an uninterrupted run.
func TestRunFinishesInterruptedDsegen(t *testing.T) {
	if testing.Short() {
		t.Skip("simulating real workloads; skipped in -short")
	}
	ref := referenceCSV(t, 3, 6)
	out := filepath.Join(t.TempDir(), "ds.csv")
	collectJournal(t, out+".journal", 3, 6, func(i int) bool { return i%3 == 2 })
	runFleet(t, "-samples", "6", "-seed", "3", "-out", out, "-lease", "2", "-chunk", "1")

	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Errorf("finished dataset differs from an uninterrupted run (%d vs %d bytes)", len(got), len(ref))
	}
	if _, err := os.Stat(out + ".journal"); !os.IsNotExist(err) {
		t.Error("journal not removed")
	}
	var meta struct {
		Type    string `json:"type"`
		Resumed int    `json:"resumed"`
	}
	if err := json.Unmarshal([]byte(readLines(t, out+".runlog.jsonl")[0]), &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Type != "meta" || meta.Resumed != 4 {
		t.Errorf("runlog meta = %+v, want resumed 4", meta)
	}
}

// TestRunRestartRefusesForeignJournal: a rerun on an -out whose journal is
// another run's (here, another -seed) exits before serving and leaves both
// the journal and the earlier run's runlog byte-unchanged.
func TestRunRestartRefusesForeignJournal(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ds.csv")
	spec := fabric.NewSpec(4, 6, false)
	sw, err := dataset.CreateStreamAux(out+".journal", spec.Features, spec.Apps, spec.Aux, spec.Meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	runlog := out + ".runlog.jsonl"
	if err := os.WriteFile(runlog, []byte(`{"type":"meta","seed":4}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := map[string][]byte{}
	for _, f := range []string{out + ".journal", runlog} {
		if before[f], err = os.ReadFile(f); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	err = run(context.Background(), []string{
		"-addr", "127.0.0.1:0", "-samples", "6", "-seed", "3", "-out", out, "-q",
	}, &buf, &buf)
	for f, b := range before {
		if after, err := os.ReadFile(f); err != nil || !bytes.Equal(after, b) {
			t.Errorf("refused restart changed %s (err %v)", filepath.Base(f), err)
		}
	}
	if err == nil || !strings.Contains(err.Error(), "another run") {
		t.Errorf("foreign journal: err = %v", err)
	}
}

func TestRunRunlogDisabled(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "ds.csv")
	var stdout bytes.Buffer
	var stderr syncBuf
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-samples", "4", "-out", out,
			"-runlog", "none", "-linger", "0s", "-q",
		}, &stdout, &stderr)
	}()
	waitForURL(t, &stderr)
	cancel() // no workers: interrupt the idle coordinator
	if err := <-done; err == nil {
		t.Error("interrupted coordinator reported success")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), "runlog") {
			t.Errorf("-runlog none still wrote %s", e.Name())
		}
	}
}
