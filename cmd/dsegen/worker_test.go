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

// assertNoStrayFiles pins the up-front flag validation contract: a rejected
// invocation must not leave a journal, runlog or any other artifact behind.
func assertNoStrayFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("rejected run left %s behind", e.Name())
	}
}

func TestRunWorkerExcludesRunFlags(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run(context.Background(),
		[]string{"-worker", "http://127.0.0.1:1", "-samples", "5", "-out", filepath.Join(dir, "ds.csv")},
		&buf, &buf)
	if err == nil {
		t.Fatal("-worker with run flags accepted")
	}
	// The error names every offending flag, sorted, and explains why.
	for _, want := range []string{"-out, -samples", "cannot be combined with -worker"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	assertNoStrayFiles(t, dir)
}

func TestRunWorkerAllowsWorkerFlags(t *testing.T) {
	// Port 1 refuses connections, so a flag-valid worker invocation must get
	// as far as fetching the spec — and fail there, not on flag validation.
	var buf bytes.Buffer
	err := run(context.Background(),
		[]string{"-worker", "http://127.0.0.1:1", "-worker-name", "w", "-workers", "2", "-q"},
		&buf, &buf)
	if err == nil {
		t.Fatal("worker connected to nothing")
	}
	if strings.Contains(err.Error(), "cannot be combined") {
		t.Errorf("compatible flags rejected: %v", err)
	}
	if !strings.Contains(err.Error(), "fetching spec") {
		t.Errorf("expected a connection failure, got: %v", err)
	}
}

// An unknown evaluator, including the removed "bound", is refused before
// the journal or runlog exists.
func TestRunEvalUnknownLeavesNoJournal(t *testing.T) {
	for _, eval := range []string{"oracle", "bound"} {
		dir := t.TempDir()
		var buf bytes.Buffer
		err := run(context.Background(),
			[]string{"-samples", "2", "-out", filepath.Join(dir, "ds.csv"), "-eval", eval, "-q"},
			&buf, &buf)
		if err == nil || !strings.Contains(err.Error(), "unknown evaluator") {
			t.Fatalf("-eval %s: err = %v", eval, err)
		}
		assertNoStrayFiles(t, dir)
	}
}

// -shard (a -fleet run replaces it), -search-workers (-workers sizes
// the barrier too), -resume (a rerun with the same flags resumes),
// -search-budget (-samples is the budget), -search-pool (8× the batch),
// -search-kappa (2) and -chunk (a worker uploads a whole lease at once)
// are gone: each is an unknown flag, refused before any file exists.
func TestRunRemovedFlagsUnknown(t *testing.T) {
	for _, extra := range [][]string{
		{"-shard", "0/2"},
		{"-search", "ucb", "-search-workers", "2"},
		{"-resume"},
		{"-search", "ucb", "-search-budget", "12"},
		{"-search", "ucb", "-search-pool", "16"},
		{"-search", "ucb", "-search-kappa", "0"},
		{"-chunk", "8"},
		{"-fleet", "127.0.0.1:0", "-chunk", "8"},
	} {
		dir := t.TempDir()
		var buf bytes.Buffer
		args := append([]string{"-samples", "4", "-out", filepath.Join(dir, "ds.csv"), "-q"}, extra...)
		err := run(context.Background(), args, &buf, &buf)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: err = %v, want an unknown-flag error", extra, err)
		}
		assertNoStrayFiles(t, dir)
	}
}

// Hybrid routing depends on earlier results in the same run, and the
// journal does not record which rows were escalated: a resumed hybrid run
// would not reproduce the uninterrupted one. So a hybrid rerun refuses the
// journal an interrupted hybrid run left, leaving it byte-unchanged and
// writing no runlog. -resume and -shard are gone and are refused as
// unknown flags before any file exists.
func TestRunHybridRefusesResumeAndShard(t *testing.T) {
	for name, tc := range map[string]struct {
		extra []string
		want  string
	}{
		"resume": {[]string{"-resume"}, "flag provided but not defined"},
		"shard":  {[]string{"-shard", "0/2"}, "flag provided but not defined"},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			var buf bytes.Buffer
			args := append([]string{"-samples", "2", "-out", filepath.Join(dir, "ds.csv"), "-eval", "hybrid", "-q"}, tc.extra...)
			err := run(context.Background(), args, &buf, &buf)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
			assertNoStrayFiles(t, dir)
		})
	}
	t.Run("rerun", func(t *testing.T) {
		dir := t.TempDir()
		out := filepath.Join(dir, "ds.csv")
		apps := armdse.SuiteNames(armdse.TestSuite())
		sw, err := armdse.CreateStreamAux(out+".journal", armdse.FeatureNames(), apps,
			armdse.StallColumns(apps), armdse.RunMeta(1, 2, false, armdse.EvalHybrid, ""))
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		before, err := os.ReadFile(out + ".journal")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		err = run(context.Background(),
			[]string{"-samples", "2", "-out", out, "-eval", "hybrid", "-q"}, &buf, &buf)
		if err == nil || !strings.Contains(err.Error(), "-eval hybrid does not resume") {
			t.Fatalf("err = %v, want a hybrid resume refusal", err)
		}
		if after, err := os.ReadFile(out + ".journal"); err != nil || !bytes.Equal(after, before) {
			t.Errorf("refused hybrid journal changed (err %v)", err)
		}
		if _, err := os.Stat(out + ".runlog.jsonl"); !os.IsNotExist(err) {
			t.Error("refused hybrid rerun wrote a runlog")
		}
	})
}
