package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"armdse"
)

// writeDataset collects a tiny dataset to analyse.
func writeDataset(t *testing.T) string {
	t.Helper()
	suite := []armdse.Workload{
		armdse.NewSTREAM(armdse.STREAMInputs{ArraySize: 512, Times: 1}),
		armdse.NewTeaLeaf(armdse.TeaLeafInputs{NX: 8, NY: 8, Steps: 1, CGIters: 2, Dt: 0.004}),
	}
	res, err := armdse.Collect(context.Background(), armdse.CollectOptions{
		Seed: 9, Samples: 40, Suite: suite,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ds.csv")
	if err := res.Data.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAnalysis(t *testing.T) {
	path := writeDataset(t)
	var out, errBuf bytes.Buffer
	if err := run([]string{"-data", path, "-top", "5"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{
		"40 rows x 30 features",
		"Held-out accuracy",
		"STREAM",
		"TeaLeaf",
		"feature importance",
		"mean accuracy across applications",
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("output missing %q", frag)
		}
	}
}

// TestRunAnalysisWorkersBins pins that the worker count never changes the
// output.
func TestRunAnalysisWorkersBins(t *testing.T) {
	path := writeDataset(t)
	outputs := make([]string, 0, 2)
	for _, extra := range [][]string{
		{"-workers", "1"},
		{"-workers", "8"},
	} {
		var out, errBuf bytes.Buffer
		args := append([]string{"-data", path, "-top", "5"}, extra...)
		if err := run(args, &out, &errBuf); err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
		outputs = append(outputs, out.String())
	}
	if outputs[0] != outputs[1] {
		t.Error("-workers 1 and -workers 8 reports differ; training must be worker-count-invariant")
	}
}

func TestRunAnalysisErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-data", "/no/such.csv"}, &buf, &buf); err == nil {
		t.Error("missing dataset accepted")
	}
	path := writeDataset(t)
	// Exact CART is the only trainer, so there is no -bins flag; the split
	// (0.8) and importance repeats (10) are the paper's, so there is no
	// -split or -repeats.
	for _, bad := range [][]string{
		{"-zzz"}, {"-bins", "256"}, {"-bins", "-5"}, {"-bins", "1"},
		{"-split", "0.8"}, {"-repeats", "10"},
	} {
		err := run(append([]string{"-data", path}, bad...), &buf, &buf)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+bad[0]) {
			t.Errorf("%v: err = %v, want an unknown-flag error", bad, err)
		}
	}
	// Out-of-range values are refused before the dataset loads (the
	// missing path proves it), never coerced or left to panic mid-report.
	for _, bad := range [][]string{
		{"-top", "-1"},
		{"-workers", "-4"},
	} {
		err := run(append([]string{"-data", "/no/such.csv"}, bad...), &buf, &buf)
		if err == nil || !strings.Contains(err.Error(), bad[0]) {
			t.Errorf("%v: err = %v, want a %s error", bad, err, bad[0])
		}
	}
	// Against a real dataset, -top -1 must fail up front, not after
	// training every tree with a panic slicing the importances.
	if err := run([]string{"-data", path, "-top", "-1"}, &buf, &buf); err == nil {
		t.Error("-top -1 accepted")
	}
}
