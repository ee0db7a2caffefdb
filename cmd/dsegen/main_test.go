package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"armdse/internal/dataset"
	"armdse/internal/obs"
	"armdse/internal/orchestrate"
	"armdse/internal/params"
	"armdse/internal/search"
	"armdse/internal/workload"
)

func TestRunGeneratesCSV(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ds.csv")
	var stdout, stderr bytes.Buffer
	err := run(context.Background(),
		[]string{"-samples", "3", "-seed", "7", "-out", out, "-q"},
		&stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "3 rows x 30 features") {
		t.Errorf("stdout = %q", stdout.String())
	}
	data, err := dataset.LoadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if data.Len() != 3 || len(data.Apps) != 4 {
		t.Errorf("dataset shape %d rows, %d apps", data.Len(), len(data.Apps))
	}
	if _, err := os.Stat(out + ".journal"); !os.IsNotExist(err) {
		t.Error("journal not removed after a clean run")
	}
	validateRunlog(t, out+".runlog.jsonl", "config")
}

// validateRunlog checks the runlog at path against the record structs,
// requiring the given record types.
func validateRunlog(t *testing.T, path string, require ...string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := obs.ValidateRunlog(f, require...); err != nil {
		t.Errorf("%s: %v", path, err)
	}
}

func TestRunBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-nope"}, &buf, &buf); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run(context.Background(), []string{"-samples", "0", "-q"}, &buf, &buf); err == nil {
		t.Error("zero samples accepted")
	}
}

func TestRunEvalUnknown(t *testing.T) {
	var buf bytes.Buffer
	out := filepath.Join(t.TempDir(), "ds.csv")
	err := run(context.Background(),
		[]string{"-samples", "2", "-out", out, "-eval", "oracle", "-q"}, &buf, &buf)
	if err == nil || !strings.Contains(err.Error(), "oracle") {
		t.Errorf("unknown evaluator accepted: %v", err)
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	out := filepath.Join(t.TempDir(), "ds.csv")
	if err := run(ctx, []string{"-samples", "100", "-out", out, "-q"}, &buf, &buf); err == nil {
		t.Error("cancelled run succeeded")
	}
}

// cliCSV runs dsegen -samples 4 -seed 9 with the given extra args (a
// -samples among them overrides the 4) and returns the output CSV bytes.
func cliCSV(t *testing.T, out string, extra ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := append([]string{"-samples", "4", "-seed", "9", "-out", out, "-q"}, extra...)
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("dsegen %v: %v", args, err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// interruptedJournal leaves at out+".journal" what dsegen -seed 9 -workers 1
// leaves when interrupted after at least k configs — the journal of an
// exact sweep of samples configs, or with a non-nil proposer, of that
// adaptive run (samples is then its budget) — and returns its row count.
func interruptedJournal(t *testing.T, out string, samples, k int, proposer *search.Proposer) int {
	t.Helper()
	suite := workload.TestSuite()
	apps := orchestrate.SuiteNames(suite)
	digest := ""
	if proposer != nil {
		digest = proposer.Digest()
	}
	sw, err := dataset.CreateStreamAux(out+".journal", params.FeatureNames(), apps,
		orchestrate.StallColumns(apps), orchestrate.RunMeta(9, samples, false, "", digest))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = orchestrate.Collect(ctx, orchestrate.Options{
		Seed:    9,
		Samples: samples,
		Batches: batchSource(proposer),
		Workers: 1,
		Suite:   suite,
		Sink:    orchestrate.StreamSink{W: sw},
		Progress: func(ev orchestrate.ProgressEvent) {
			if ev.Done >= k {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted collection: err = %v, want context.Canceled", err)
	}
	n := sw.Len()
	if n < k || n >= samples {
		t.Fatalf("interrupted journal holds %d of %d configs, want at least %d and not all", n, samples, k)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRunRerunResumesJournal: rerunning an interrupted exact sweep with
// the same flags resumes its journal, and the CSV is byte-identical to an
// uninterrupted run's; the runlog's meta record counts the resumed rows.
func TestRunRerunResumesJournal(t *testing.T) {
	dir := t.TempDir()
	full := cliCSV(t, filepath.Join(dir, "full.csv"))
	out := filepath.Join(dir, "rerun.csv")
	resumed := interruptedJournal(t, out, 4, 2, nil)
	if got := cliCSV(t, out); !bytes.Equal(full, got) {
		t.Error("rerun CSV differs from uninterrupted run")
	}
	rl, err := os.ReadFile(out + ".runlog.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(rl, []byte(fmt.Sprintf(`"resumed":%d,`, resumed))) {
		t.Errorf("runlog meta does not count the resumed rows: %.200s", rl)
	}
}

// TestRunRerunResumesAdaptiveJournal: the same for -search ucb, where the
// rerun must replay the proposal sequence from the journaled rows.
func TestRunRerunResumesAdaptiveJournal(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-samples", "12", "-search", "ucb", "-search-batch", "4"}
	full := cliCSV(t, filepath.Join(dir, "full.csv"), args...)
	proposer, err := search.NewProposer(search.ProposeOptions{
		Strategy: "ucb", Seed: 9, Budget: 12, Batch: 4,
		Apps: orchestrate.SuiteNames(workload.TestSuite()),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "rerun.csv")
	interruptedJournal(t, out, 12, 6, proposer)
	if got := cliCSV(t, out, args...); !bytes.Equal(full, got) {
		t.Error("rerun adaptive CSV differs from uninterrupted run")
	}
}

// TestRunRerunRefusesForeignJournal: a run whose -seed differs from the
// leftover journal's exits with an error and leaves the journal and the
// earlier runlog byte-unchanged.
func TestRunRerunRefusesForeignJournal(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ds.csv")
	interruptedJournal(t, out, 4, 1, nil)
	runlog := out + ".runlog.jsonl"
	if err := os.WriteFile(runlog, []byte(`{"type":"meta","seed":9}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := map[string][]byte{}
	for _, f := range []string{out + ".journal", runlog} {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		before[f] = b
	}
	var buf bytes.Buffer
	err := run(context.Background(),
		[]string{"-samples", "4", "-seed", "10", "-out", out, "-q"}, &buf, &buf)
	for f, b := range before {
		if after, err := os.ReadFile(f); err != nil || !bytes.Equal(after, b) {
			t.Errorf("refused rerun changed %s (err %v)", filepath.Base(f), err)
		}
	}
	if err == nil || !strings.Contains(err.Error(), "another run") {
		t.Errorf("foreign journal: err = %v", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Error("refused rerun wrote a dataset")
	}
}

// TestRunAdaptiveUniform pins the adaptive control arm to the classic
// sweep: -search uniform must produce a byte-identical CSV.
func TestRunAdaptiveUniform(t *testing.T) {
	dir := t.TempDir()
	classic := cliCSV(t, filepath.Join(dir, "classic.csv"))
	adaptive := cliCSV(t, filepath.Join(dir, "uniform.csv"),
		"-search", "uniform", "-search-batch", "2")
	if !bytes.Equal(classic, adaptive) {
		t.Error("-search uniform CSV differs from the classic fixed sweep")
	}
}

func TestRunAdaptiveUCB(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ucb.csv")
	var stdout, stderr bytes.Buffer
	err := run(context.Background(),
		[]string{"-samples", "12", "-seed", "9", "-out", out, "-q",
			"-search", "ucb", "-search-batch", "4"},
		&stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	data, err := dataset.LoadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if data.Len() != 12 {
		t.Errorf("adaptive dataset rows = %d, want 12", data.Len())
	}
	// The runlog is valid, and its config records carry the proposing
	// generation.
	validateRunlog(t, out+".runlog.jsonl", "barrier")
	rl, err := os.ReadFile(out + ".runlog.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(rl, []byte(`"gen":`)) {
		t.Error("adaptive runlog has no gen tags")
	}
	if !bytes.Contains(rl, []byte(`"search":"ucb/`)) {
		t.Error("adaptive runlog meta has no search digest")
	}
}

func TestRunAdaptiveRejects(t *testing.T) {
	var buf bytes.Buffer
	out := filepath.Join(t.TempDir(), "ds.csv")
	if err := run(context.Background(),
		[]string{"-samples", "4", "-out", out, "-search", "anneal", "-q"}, &buf, &buf); err == nil {
		t.Error("unknown strategy accepted")
	}
	// A negative batch size is a usage error, not a silent fallback to the
	// default, and leaves no journal or runlog behind.
	err := run(context.Background(),
		[]string{"-samples", "20", "-out", out, "-search", "ucb", "-search-batch", "-1", "-q"}, &buf, &buf)
	if err == nil || !strings.Contains(err.Error(), "-search-batch") {
		t.Errorf("-search-batch -1 accepted: %v", err)
	}
	for _, f := range []string{out + ".journal", out + ".runlog.jsonl"} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("stray %s after usage error", f)
		}
	}
}

// -search-batch without -search is a usage error naming both flags, and —
// like all validateFlags rejections — must not leave a stray journal or
// runlog behind.
func TestRunSearchSubFlagsRequireSearch(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ds.csv")
	var buf bytes.Buffer
	err := run(context.Background(),
		[]string{"-samples", "4", "-out", out, "-q", "-search-batch", "8"}, &buf, &buf)
	if err == nil || !strings.Contains(err.Error(), "-search-batch requires -search") {
		t.Errorf("-search-batch accepted without -search: %v", err)
	}
	for _, f := range []string{out + ".journal", out + ".runlog.jsonl"} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("stray %s after usage error", f)
		}
	}
}

// TestRunAdaptiveWorkersCSVParity is the CLI face of the adaptive
// determinism contract: -workers sizes both the simulation pool and the
// barrier's refits and pool scoring, and changes only wall time, never the
// dataset bytes; both runlogs are valid and carry barrier records.
func TestRunAdaptiveWorkersCSVParity(t *testing.T) {
	dir := t.TempDir()
	common := []string{"-samples", "12", "-search", "ucb", "-search-batch", "4"}
	serial := cliCSV(t, filepath.Join(dir, "w1.csv"),
		append(common, "-workers", "1")...)
	parallel := cliCSV(t, filepath.Join(dir, "w4.csv"),
		append(common, "-workers", "4")...)
	if !bytes.Equal(serial, parallel) {
		t.Error("-workers 4 adaptive CSV differs from -workers 1")
	}
	for _, w := range []string{"w1", "w4"} {
		validateRunlog(t, filepath.Join(dir, w+".csv.runlog.jsonl"), "barrier")
	}
}
