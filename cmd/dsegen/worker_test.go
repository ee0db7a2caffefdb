package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

func TestRunSearchShardExclusive(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run(context.Background(),
		[]string{"-samples", "4", "-out", filepath.Join(dir, "ds.csv"),
			"-search", "ucb", "-shard", "0/2", "-q"},
		&buf, &buf)
	if err == nil || !strings.Contains(err.Error(), "-search and -shard are incompatible") {
		t.Fatalf("err = %v", err)
	}
	assertNoStrayFiles(t, dir)
}

// Hybrid routing depends on earlier results in the same run, and the
// journal does not record which rows were escalated: a resumed or sharded
// hybrid run would not reproduce the uninterrupted one, so both are
// refused before any file exists.
func TestRunHybridRefusesResumeAndShard(t *testing.T) {
	for name, extra := range map[string][]string{
		"resume": {"-resume"},
		"shard":  {"-shard", "0/2"},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			var buf bytes.Buffer
			args := append([]string{"-samples", "2", "-out", filepath.Join(dir, "ds.csv"), "-eval", "hybrid", "-q"}, extra...)
			err := run(context.Background(), args, &buf, &buf)
			if err == nil || !strings.Contains(err.Error(), "-eval hybrid cannot be combined with -resume or -shard") {
				t.Fatalf("err = %v", err)
			}
			assertNoStrayFiles(t, dir)
		})
	}
}
