package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"armdse/internal/orchestrate"
	"armdse/internal/params"
	"armdse/internal/workload"
)

// fixture builds a dataset CSV and a config JSON for queries.
func fixture(t *testing.T) (dataPath, cfgPath string) {
	t.Helper()
	suite := []workload.Workload{
		workload.NewSTREAM(workload.STREAMInputs{ArraySize: 512, Times: 1}),
	}
	res, err := orchestrate.Collect(context.Background(), orchestrate.Options{
		Seed: 17, Samples: 60, Suite: suite,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	dataPath = filepath.Join(dir, "ds.csv")
	if err := res.Data.SaveFile(dataPath); err != nil {
		t.Fatal(err)
	}
	cfgPath = filepath.Join(dir, "cfg.json")
	if err := params.SaveConfig(params.ThunderX2(), cfgPath); err != nil {
		t.Fatal(err)
	}
	return dataPath, cfgPath
}

func TestQueryPredictPdpSearch(t *testing.T) {
	dataPath, cfgPath := fixture(t)
	var out, errBuf bytes.Buffer
	err := run([]string{
		"-data", dataPath, "-app", "STREAM",
		"-predict", cfgPath,
		"-pdp", "L2-Size",
		"-search",
		"-pareto",
	}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{
		"surrogate for STREAM",
		"predicted cycles for",
		"Partial dependence of STREAM cycles on L2-Size",
		"best predicted cycles",
		"winning configuration",
		"Pareto front of STREAM cycles",
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("output missing %q", frag)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	dataPath, _ := fixture(t)
	var buf bytes.Buffer
	if err := run([]string{"-data", "/no/such.csv", "-search"}, &buf, &buf); err == nil {
		t.Error("missing dataset accepted")
	}
	if err := run([]string{"-data", dataPath, "-app", "nope", "-search"}, &buf, &buf); err == nil {
		t.Error("unknown app accepted")
	}
	if err := run([]string{"-data", dataPath, "-pdp", "Not-A-Feature"}, &buf, &buf); err == nil {
		t.Error("unknown feature accepted")
	}
	if err := run([]string{"-data", dataPath}, &buf, &buf); err == nil {
		t.Error("no-op invocation accepted")
	}
	if err := run([]string{"-data", dataPath, "-predict", "/no/cfg.json"}, &buf, &buf); err == nil {
		t.Error("missing config accepted")
	}
	// The screening pool is fixed at 20,000: -candidates is gone.
	err := run([]string{"-data", dataPath, "-search", "-candidates", "300"}, &buf, &buf)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -candidates") {
		t.Errorf("-candidates: err = %v, want an unknown-flag error", err)
	}
}
