package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleCheapExperiment(t *testing.T) {
	outDir := t.TempDir()
	var out, errBuf bytes.Buffer
	err := run(context.Background(),
		[]string{"-only", "table2", "-out", outDir},
		&out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Vector-Length") {
		t.Errorf("output missing table2 content")
	}
	saved, err := os.ReadFile(filepath.Join(outDir, "table2.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(saved), "Vector-Length") {
		t.Error("saved file missing content")
	}
}

// Every experiment that reads the shared dataset must take it from -data.
// -samples 1 makes one that ignored -data collect a single config and fail.
func TestRunWithReusedDataset(t *testing.T) {
	data, err := collectTiny(t)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ds.csv")
	if err := data.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig3", "extstalls"} {
		var out, errBuf bytes.Buffer
		err = run(context.Background(),
			[]string{"-only", id, "-data", path, "-samples", "1"},
			&out, &errBuf)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if want := fmt.Sprintf("reusing %d rows", data.Len()); !strings.Contains(errBuf.String(), want) {
			t.Errorf("%s: stderr = %q, want %q", id, errBuf.String(), want)
		}
		if !strings.Contains(out.String(), "== "+id+":") {
			t.Errorf("%s output missing", id)
		}
	}
}

// saveTiny writes collectTiny's dataset to a CSV in dir and returns its path.
func saveTiny(t *testing.T, dir string) string {
	t.Helper()
	data, err := collectTiny(t)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ds.csv")
	if err := data.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunPaperAnalysis is the paper's analysis of a collected dataset: -only
// fig3,fig2 loads -data once and runs both in the given order.
func TestRunPaperAnalysis(t *testing.T) {
	dir := t.TempDir()
	path := saveTiny(t, dir)
	var out, errBuf bytes.Buffer
	err := run(context.Background(),
		[]string{"-data", path, "-only", "fig3,fig2", "-out", filepath.Join(dir, "out")},
		&out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(errBuf.String(), "reusing"); n != 1 {
		t.Errorf("dataset loaded %d times, want once: %q", n, errBuf.String())
	}
	s := out.String()
	if i2, i3 := strings.Index(s, "== fig2:"), strings.Index(s, "== fig3:"); i3 < 0 || i2 < i3 {
		t.Errorf("want fig3 then fig2, got:\n%s", s)
	}
}

// TestRunPaperAnalysisWorkerInvariance: -only fig2,fig3 writes the same
// results at -workers 1 and 2.
func TestRunPaperAnalysisWorkerInvariance(t *testing.T) {
	dir := t.TempDir()
	path := saveTiny(t, dir)
	for _, w := range []string{"1", "2"} {
		var out, errBuf bytes.Buffer
		err := run(context.Background(),
			[]string{"-data", path, "-only", "fig2,fig3", "-workers", w, "-out", filepath.Join(dir, "w"+w)},
			&out, &errBuf)
		if err != nil {
			t.Fatalf("-workers %s: %v", w, err)
		}
	}
	for _, id := range []string{"fig2", "fig3"} {
		a, errA := os.ReadFile(filepath.Join(dir, "w1", id+".txt"))
		b, errB := os.ReadFile(filepath.Join(dir, "w2", id+".txt"))
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: -workers 1 and 2 results differ; training must be worker-count-invariant", id)
		}
	}
}

// TestRunRejectsBadFlags: a negative -workers or a bad -only list is refused
// before the dataset loads (the missing -data path proves it).
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workers", "-1"}, "-workers -1"},
		{[]string{"-workers", "-4", "-only", "table2"}, "-workers -4"},
		{[]string{"-only", "fig2,nope"}, `"nope"`},
		{[]string{"-only", "fig2,"}, `""`},
	} {
		var buf bytes.Buffer
		err := run(context.Background(), append([]string{"-data", "/no/such.csv"}, tc.args...), &buf, &buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want an error naming %s", tc.args, err, tc.want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-only", "nope"}, &buf, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run(context.Background(), []string{"-data", "/no/such.csv", "-only", "fig2"}, &buf, &buf); err == nil {
		t.Error("missing dataset accepted")
	}
	if err := run(context.Background(), []string{"-wat"}, &buf, &buf); err == nil {
		t.Error("bad flag accepted")
	}
}
