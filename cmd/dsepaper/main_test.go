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
