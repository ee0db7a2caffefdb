//go:build linux

// Package peakrss_test bounds the peak resident set of the collection and
// single-run commands, each built without the race detector and measured
// through the maxrss helper in testdata. The test stats every Go file it
// builds, so an edit to any of them invalidates a cached result.
package peakrss_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"armdse/internal/params"
)

// build compiles the package at pkg into dir, without the race detector.
// It stats each non-standard Go file the build compiles: go test keys a
// cached result on the files a test stats or opens, and the test binary
// does not import the commands it builds.
func build(t *testing.T, dir, pkg string) string {
	t.Helper()
	srcs, err := exec.Command("go", "list", "-deps", "-f",
		`{{if not .Standard}}{{range .GoFiles}}{{$.Dir}}/{{.}}{{"\n"}}{{end}}{{end}}`, pkg).Output()
	if err != nil {
		t.Fatalf("go list %s: %v", pkg, err)
	}
	for _, src := range strings.Split(strings.TrimSpace(string(srcs)), "\n") {
		if _, err := os.Stat(src); err != nil {
			t.Fatal(err)
		}
	}
	bin := filepath.Join(dir, filepath.Base(pkg))
	if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// peakRSSMB runs bin with args in dir and returns its peak resident set in
// MB (Maxrss is in KiB on Linux).
func peakRSSMB(t *testing.T, dir, bin string, args ...string) float64 {
	t.Helper()
	cmd := exec.Command(build(t, dir, "./testdata/maxrss"), append([]string{bin}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, stderr.Bytes())
	}
	kib, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return float64(kib) / 1024
}

// TestSweepPeakRSS bounds a small sweep: it holds built programs, never
// expanded traces, so RSS does not grow with -samples.
func TestSweepPeakRSS(t *testing.T) {
	if testing.Short() {
		t.Skip("simulating 60 configs; skipped in -short")
	}
	dir := t.TempDir()
	dsegen := build(t, dir, "armdse/cmd/dsegen")
	mb := peakRSSMB(t, dir, dsegen, "-samples", "60", "-workers", "2", "-runlog", "none", "-out", "rss.csv", "-q")
	t.Logf("dsegen peak RSS: %.1f MB (limit 40 MB)", mb)
	if mb > 40 {
		t.Errorf("dsegen -samples 60 -workers 2 peak RSS %.1f MB, limit 40 MB", mb)
	}
}

// TestWorstGeometryPeakRSS bounds one STREAM run on the ThunderX2 baseline
// with a 16 MiB, 16-way L2 of 16-B lines: each simulated cache holds only
// the lines a run touches, so RSS does not grow with the cache sizes.
func TestWorstGeometryPeakRSS(t *testing.T) {
	if testing.Short() {
		t.Skip("simulating a STREAM run; skipped in -short")
	}
	dir := t.TempDir()
	cfg := params.ThunderX2()
	cfg.Mem.L2Size, cfg.Mem.CacheLineWidth, cfg.Mem.L2Assoc = 16<<20, 16, 16
	if err := params.SaveConfig(cfg, filepath.Join(dir, "worst.json")); err != nil {
		t.Fatal(err)
	}
	dserun := build(t, dir, "armdse/cmd/dserun")
	mb := peakRSSMB(t, dir, dserun, "-config", "worst.json", "-app", "STREAM")
	t.Logf("dserun worst-geometry peak RSS: %.1f MB (limit 20 MB)", mb)
	if mb > 20 {
		t.Errorf("dserun worst-geometry peak RSS %.1f MB, limit 20 MB", mb)
	}
}
