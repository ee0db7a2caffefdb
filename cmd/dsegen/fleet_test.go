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
	"armdse/internal/obs"
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

// collectJournal runs the single-process pipeline (a local run's) into a
// journal at path, skipping the indices skip names: a whole reference run
// with a nil skip, or the journal an interrupted local run leaves behind.
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

// runFleet runs dsegen -fleet with args on a kernel-assigned port plus two
// in-process workers, and returns its stdout once all three have finished.
func runFleet(t *testing.T, args ...string) string {
	t.Helper()
	stdout, err := fleetRun(t, args...)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	return stdout
}

// fleetRun is runFleet returning the coordinator's error. A worker's error
// fails the test only when the coordinator succeeds: a failed coordinator
// stops serving, so its workers may lose it before they learn the run is
// over.
func fleetRun(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout bytes.Buffer
	var stderr syncBuf
	coordErr := make(chan error, 1)
	go func() {
		// Workers poll every 20ms, so half a second of linger guarantees
		// both observe done:true instead of a vanished coordinator.
		coordErr <- run(context.Background(), append([]string{
			"-fleet", "127.0.0.1:0", "-expiry", "10s", "-http-linger", "500ms", "-q",
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
	err := <-coordErr
	for i, werr := range workerErrs {
		if werr != nil && err == nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}
	return stdout.String(), err
}

// TestRunFleetMatchesSingleProcess drives dsegen -fleet end to end —
// coordinator on a kernel-assigned port, two in-process workers — and
// checks the written dataset is byte-identical to the single-process
// pipeline, the journal is removed, and the runlog validates with lease,
// util and heartbeat records.
func TestRunFleetMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("simulating real workloads; skipped in -short")
	}
	ref := referenceCSV(t, 3, 6)
	out := filepath.Join(t.TempDir(), "fleet.csv")
	stdout := runFleet(t, "-samples", "6", "-seed", "3", "-out", out, "-lease", "2")

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

	// The runlog is valid with fleet records; 3 leases of 2 configs: at
	// least one grant and one complete per lease.
	validateRunlog(t, out+".runlog.jsonl", "lease", "util", "heartbeat")
	leaseEvents := map[string]int{}
	for _, line := range readLines(t, out+".runlog.jsonl") {
		if strings.HasPrefix(line, `{"type":"lease"`) {
			var rec obs.LeaseRecord
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatal(err)
			}
			leaseEvents[rec.Event]++
		}
	}
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

func TestRunFleetRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	for name, args := range map[string][]string{
		"unknown-flag": {"-fleet", "127.0.0.1:0", "-nope"},
		"zero-samples": {"-fleet", "127.0.0.1:0", "-samples", "0", "-q"},
	} {
		if err := run(context.Background(), args, &buf, &buf); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestRunFleetRejectsBadLeaseGeometry: a non-positive -lease or -expiry is
// a usage error — not a silent fallback to the defaults — and leaves no
// runlog or journal behind.
func TestRunFleetRejectsBadLeaseGeometry(t *testing.T) {
	for _, args := range [][]string{
		{"-lease", "-5"}, {"-lease", "0"},
		{"-expiry", "-1s"}, {"-expiry", "0s"},
	} {
		dir := t.TempDir()
		var buf bytes.Buffer
		err := run(context.Background(), append([]string{
			"-fleet", "127.0.0.1:0", "-samples", "10", "-out", filepath.Join(dir, "ds.csv"), "-q",
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

// TestRunFleetRefusesLocalFlags: -fleet refuses every flag that shapes a
// local run or a worker, and the lease geometry flags require -fleet. Each
// refusal names the flag and leaves the output directory empty.
func TestRunFleetRefusesLocalFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-fleet", "127.0.0.1:0", "-workers", "2"}, "-workers"},
		{[]string{"-fleet", "127.0.0.1:0", "-eval", "hybrid"}, "-eval"},
		{[]string{"-fleet", "127.0.0.1:0", "-eval-escalate", "1"}, "-eval-escalate"},
		{[]string{"-fleet", "127.0.0.1:0", "-search", "ucb"}, "-search"},
		{[]string{"-fleet", "127.0.0.1:0", "-search-batch", "8"}, "-search-batch"},
		{[]string{"-fleet", "127.0.0.1:0", "-http", "127.0.0.1:0"}, "-http"},
		{[]string{"-fleet", "127.0.0.1:0", "-worker", "http://127.0.0.1:1"}, "-worker"},
		{[]string{"-fleet", "127.0.0.1:0", "-worker-name", "w"}, "-worker-name"},
		{[]string{"-lease", "32"}, "-lease"},
		{[]string{"-expiry", "30s"}, "-expiry"},
	} {
		dir := t.TempDir()
		var buf bytes.Buffer
		args := append([]string{"-samples", "4", "-out", filepath.Join(dir, "ds.csv"), "-q"}, tc.args...)
		err := run(context.Background(), args, &buf, &buf)
		if err == nil || !strings.Contains(err.Error(), tc.flag+" ") {
			t.Errorf("%v: err = %v, want an error naming %s", tc.args, err, tc.flag)
		}
		assertNoStrayFiles(t, dir)
	}
}

// TestRunFleetFinishesInterruptedRun: an exact local run interrupted with
// part of its journal written is finished by a fleet on the same -out —
// the coordinator resumes the journal, leases only the missing indices,
// and the dataset is byte-identical to an uninterrupted run.
func TestRunFleetFinishesInterruptedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulating real workloads; skipped in -short")
	}
	ref := referenceCSV(t, 3, 6)
	out := filepath.Join(t.TempDir(), "ds.csv")
	collectJournal(t, out+".journal", 3, 6, func(i int) bool { return i%3 == 2 })
	runFleet(t, "-samples", "6", "-seed", "3", "-out", out, "-lease", "2")

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

// TestRunFleetRestartRefusesForeignJournal: a rerun on an -out whose journal is
// another run's (here, another -seed) exits before serving and leaves both
// the journal and the earlier run's runlog byte-unchanged.
func TestRunFleetRestartRefusesForeignJournal(t *testing.T) {
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
		"-fleet", "127.0.0.1:0", "-samples", "6", "-seed", "3", "-out", out, "-q",
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

func TestRunFleetRunlogDisabled(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "ds.csv")
	var stdout bytes.Buffer
	var stderr syncBuf
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-fleet", "127.0.0.1:0", "-samples", "4", "-out", out,
			"-runlog", "none", "-http-linger", "0s", "-q",
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

// TestRunFailedSaveLeavesNoSummary: when -out cannot be written (here it is
// an existing directory, so the final rename fails), a local run and a
// fleet both fail, keep <out>.journal with every row, and leave a runlog
// without a summary record: a summary marks a run whose dataset was saved.
func TestRunFailedSaveLeavesNoSummary(t *testing.T) {
	if testing.Short() {
		t.Skip("simulating real workloads; skipped in -short")
	}
	for _, mode := range []string{"local", "fleet"} {
		out := filepath.Join(t.TempDir(), "ds.csv")
		if err := os.Mkdir(out, 0o755); err != nil {
			t.Fatal(err)
		}
		args := []string{"-samples", "4", "-seed", "3", "-out", out}
		var err error
		if mode == "fleet" {
			_, err = fleetRun(t, append(args, "-lease", "2")...)
		} else {
			var buf bytes.Buffer
			err = run(context.Background(), append(args, "-workers", "2", "-q"), &buf, &buf)
		}
		if err == nil {
			t.Errorf("%s: saving over a directory succeeded", mode)
		}
		ds, failed, cerr := dataset.CompactStream(out + ".journal")
		if cerr != nil || ds.Len()+failed != 4 {
			t.Errorf("%s: journal after the failed save: %v", mode, cerr)
		}
		lines := readLines(t, out+".runlog.jsonl")
		if !strings.HasPrefix(lines[0], `{"type":"meta"`) {
			t.Errorf("%s: runlog starts %s", mode, lines[0])
		}
		for _, line := range lines {
			if strings.HasPrefix(line, `{"type":"summary"`) {
				t.Errorf("%s: runlog of a failed save has a summary: %s", mode, line)
			}
		}
	}
}
