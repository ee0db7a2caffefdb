package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"armdse"
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
	data, err := armdse.LoadDataset(out)
	if err != nil {
		t.Fatal(err)
	}
	if data.Len() != 3 || len(data.Apps) != 4 {
		t.Errorf("dataset shape %d rows, %d apps", data.Len(), len(data.Apps))
	}
	if _, err := os.Stat(out + ".journal"); !os.IsNotExist(err) {
		t.Error("journal not removed after a clean run")
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
	out := filepath.Join(t.TempDir(), "ds.csv")
	for _, s := range []string{"x", "3/2", "-1/2", "1/0", "1/2/3"} {
		if err := run(context.Background(), []string{"-samples", "2", "-out", out, "-shard", s, "-q"}, &buf, &buf); err == nil {
			t.Errorf("shard %q accepted", s)
		}
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

// cliCSV runs dsegen with the given extra args and returns the output CSV
// bytes.
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

func TestRunResumeMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()
	full := cliCSV(t, filepath.Join(dir, "full.csv"))

	// Simulate an interrupted run: journal only indices 0 and 1, exactly
	// as a killed dsegen would leave behind.
	out := filepath.Join(dir, "resumed.csv")
	suite := armdse.TestSuite()
	apps := armdse.SuiteNames(suite)
	sw, err := armdse.CreateStreamAux(out+".journal", armdse.FeatureNames(), apps,
		armdse.StallColumns(apps), journalMeta(9, 4, false, "", ""))
	if err != nil {
		t.Fatal(err)
	}
	_, err = armdse.Collect(context.Background(), armdse.CollectOptions{
		Seed:    9,
		Samples: 4,
		Suite:   suite,
		Sink:    armdse.NewStreamSink(sw),
		Skip:    func(i int) bool { return i >= 2 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	resumed := cliCSV(t, out, "-resume")
	if !bytes.Equal(full, resumed) {
		t.Error("resumed CSV differs from uninterrupted run")
	}

	// -resume with no journal starts fresh and still matches.
	fresh := cliCSV(t, filepath.Join(dir, "fresh.csv"), "-resume")
	if !bytes.Equal(full, fresh) {
		t.Error("-resume without a journal differs from a fresh run")
	}
}

// TestRunResumeV1Journal resumes a journal written before stall columns
// existed (schema v1): the run must succeed and keep the journal's original
// layout, producing a CSV whose feature and target columns match a fresh
// run's but with no stall columns.
func TestRunResumeV1Journal(t *testing.T) {
	dir := t.TempDir()
	cliCSV(t, filepath.Join(dir, "full.csv"))

	out := filepath.Join(dir, "v1.csv")
	suite := armdse.TestSuite()
	sw, err := armdse.CreateStream(out+".journal", armdse.FeatureNames(), armdse.SuiteNames(suite),
		journalMeta(9, 4, false, "", ""))
	if err != nil {
		t.Fatal(err)
	}
	_, err = armdse.Collect(context.Background(), armdse.CollectOptions{
		Seed:    9,
		Samples: 4,
		Suite:   suite,
		Sink:    armdse.NewStreamSink(sw),
		Skip:    func(i int) bool { return i >= 2 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	v1 := cliCSV(t, out, "-resume")
	if strings.Contains(string(v1), "stall:") {
		t.Error("resumed v1 journal produced stall columns")
	}
	// Projecting the fresh v2 run onto the v1 columns must reproduce the
	// v1 output exactly: same rows, stall columns simply absent.
	data, err := armdse.LoadDataset(out)
	if err != nil {
		t.Fatal(err)
	}
	if v := data.SchemaVersion(); v != 1 {
		t.Errorf("resumed dataset schema v%d, want v1", v)
	}
	fullData, err := armdse.LoadDataset(filepath.Join(dir, "full.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if v := fullData.SchemaVersion(); v != 2 {
		t.Errorf("fresh dataset schema v%d, want v2", v)
	}
	if data.Len() != fullData.Len() {
		t.Fatalf("v1 run has %d rows, fresh run %d", data.Len(), fullData.Len())
	}
	for r := range data.X {
		for c := range data.X[r] {
			if data.X[r][c] != fullData.X[r][c] {
				t.Fatalf("row %d feature %d: v1 %v, fresh %v", r, c, data.X[r][c], fullData.X[r][c])
			}
		}
		for _, a := range data.Apps {
			if data.Y[a][r] != fullData.Y[a][r] {
				t.Fatalf("row %d target %s: v1 %v, fresh %v", r, a, data.Y[a][r], fullData.Y[a][r])
			}
		}
	}
}

func TestRunShardUnionMatchesUnsharded(t *testing.T) {
	dir := t.TempDir()
	full := cliCSV(t, filepath.Join(dir, "full.csv"))
	s0 := cliCSV(t, filepath.Join(dir, "s0.csv"), "-shard", "0/2")
	s1 := cliCSV(t, filepath.Join(dir, "s1.csv"), "-shard", "1/2")

	lines := func(b []byte) []string {
		ls := strings.Split(strings.TrimSpace(string(b)), "\n")
		return ls[1:] // drop header
	}
	union := map[string]bool{}
	for _, l := range append(lines(s0), lines(s1)...) {
		union[l] = true
	}
	fullLines := lines(full)
	if len(union) != len(fullLines) {
		t.Fatalf("shard union has %d rows, full run %d", len(union), len(fullLines))
	}
	for _, l := range fullLines {
		if !union[l] {
			t.Errorf("full-run row missing from shard union: %.60s...", l)
		}
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
		[]string{"-seed", "9", "-out", out, "-q",
			"-search", "ucb", "-search-budget", "12", "-search-batch", "4", "-search-pool", "16"},
		&stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	data, err := armdse.LoadDataset(out)
	if err != nil {
		t.Fatal(err)
	}
	if data.Len() != 12 {
		t.Errorf("adaptive dataset rows = %d, want 12", data.Len())
	}
	// The runlog's config records carry the proposing generation.
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
	err := run(context.Background(),
		[]string{"-samples", "4", "-out", out, "-search", "ucb", "-shard", "0/2", "-q"}, &buf, &buf)
	if err == nil || !strings.Contains(err.Error(), "-shard") {
		t.Errorf("adaptive shard accepted: %v", err)
	}
	if err := run(context.Background(),
		[]string{"-samples", "4", "-out", out, "-search", "anneal", "-q"}, &buf, &buf); err == nil {
		t.Error("unknown strategy accepted")
	}
	// Negative proposer sizes are usage errors, not a silent fallback to
	// the defaults, and leave no journal or runlog behind.
	for _, f := range []string{"-search-budget", "-search-batch", "-search-pool"} {
		err := run(context.Background(),
			[]string{"-samples", "20", "-out", out, "-search", "ucb", f, "-1", "-q"}, &buf, &buf)
		if err == nil || !strings.Contains(err.Error(), f) {
			t.Errorf("%s -1 accepted: %v", f, err)
		}
	}
	for _, f := range []string{out + ".journal", out + ".runlog.jsonl"} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("stray %s after usage error", f)
		}
	}
}

// Search-subordinate flags without -search are a usage error naming every
// offending flag, and — like all validateFlags rejections — must not leave a
// stray journal or runlog behind.
func TestRunSearchSubFlagsRequireSearch(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ds.csv")
	var buf bytes.Buffer
	cases := [][]string{
		{"-search-workers", "4"},
		{"-search-budget", "10", "-search-pool", "16"},
		{"-search-batch", "8"},
		{"-search-kappa", "3"},
	}
	for _, extra := range cases {
		args := append([]string{"-samples", "4", "-out", out, "-q"}, extra...)
		err := run(context.Background(), args, &buf, &buf)
		if err == nil || !strings.Contains(err.Error(), "-search") {
			t.Errorf("%v accepted without -search: %v", extra, err)
			continue
		}
		for i := 0; i < len(extra); i += 2 {
			if !strings.Contains(err.Error(), extra[i]) {
				t.Errorf("error does not name %s: %v", extra[i], err)
			}
		}
	}
	for _, f := range []string{out + ".journal", out + ".runlog.jsonl"} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("stray %s after usage error", f)
		}
	}
}

// TestRunSearchWorkersCSVParity is the CLI face of the acquisition
// determinism contract: -search-workers changes only the barrier wall time,
// never the dataset bytes, and the runlog carries barrier records.
func TestRunSearchWorkersCSVParity(t *testing.T) {
	dir := t.TempDir()
	common := []string{"-search", "ucb", "-search-budget", "12", "-search-batch", "4",
		"-search-pool", "16"}
	serial := cliCSV(t, filepath.Join(dir, "w1.csv"),
		append(common, "-search-workers", "1")...)
	parallel := cliCSV(t, filepath.Join(dir, "w4.csv"),
		append(common, "-search-workers", "4")...)
	if !bytes.Equal(serial, parallel) {
		t.Error("-search-workers 4 CSV differs from -search-workers 1")
	}
	rl, err := os.ReadFile(filepath.Join(dir, "w4.csv.runlog.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(rl, []byte(`"type":"barrier"`)) {
		t.Error("adaptive runlog has no barrier records")
	}
}
