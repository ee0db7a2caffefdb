package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"armdse/internal/obs"
)

// fleetLog is a hand-built coordinator runlog: two workers, one expiry with
// a steal, util records and a final summary. Values are chosen so every
// derived number is exact.
const fleetLog = `{"type":"meta","version":1,"seed":7,"samples":8,"workers":0,"fabric":{"lease_size":4,"chunk":2,"expiry_ms":1000}}
{"type":"lease","event":"grant","lease":0,"epoch":1,"worker":"w1","lo":0,"hi":4,"cursor":0,"elapsed_s":0.1}
{"type":"lease","event":"grant","lease":1,"epoch":1,"worker":"w2","lo":4,"hi":8,"cursor":4,"elapsed_s":0.2}
{"type":"heartbeat","elapsed_s":1,"done":4,"failed":0,"total":8,"rows_per_sec":4,"eta_s":1,"cycles":100}
{"type":"util","worker":"w1","elapsed_s":1,"rows":2,"rows_per_sec":2,"busy_s":0.8,"up_s":1,"busy_frac":0.8,"last_seen_s":0.1}
{"type":"util","worker":"w2","elapsed_s":1,"rows":2,"rows_per_sec":2,"busy_s":0.5,"up_s":1,"busy_frac":0.5,"last_seen_s":0.1}
{"type":"lease","event":"complete","lease":0,"epoch":1,"worker":"w1","lo":0,"hi":4,"cursor":4,"elapsed_s":1.5}
{"type":"lease","event":"expire","lease":1,"epoch":1,"worker":"w2","lo":4,"hi":8,"cursor":6,"elapsed_s":1.6}
{"type":"lease","event":"steal","lease":1,"epoch":2,"worker":"w2","lo":6,"hi":8,"cursor":6,"elapsed_s":1.6}
{"type":"lease","event":"grant","lease":2,"epoch":1,"worker":"w1","lo":6,"hi":8,"cursor":6,"elapsed_s":1.7}
{"type":"lease","event":"complete","lease":2,"epoch":1,"worker":"w1","lo":6,"hi":8,"cursor":8,"elapsed_s":2}
{"type":"util","worker":"w1","elapsed_s":2,"rows":6,"rows_per_sec":3,"busy_s":1.6,"up_s":2,"busy_frac":0.8,"last_seen_s":0}
{"type":"util","worker":"w2","elapsed_s":2,"rows":2,"rows_per_sec":1,"busy_s":0.5,"up_s":2,"busy_frac":0.25,"last_seen_s":1}
{"type":"heartbeat","elapsed_s":2,"done":8,"failed":0,"total":8,"rows_per_sec":4,"eta_s":0,"cycles":200}
{"type":"summary","rows":8,"failed":0,"elapsed_s":2,"journal_lines":14,"journal_bytes":1000}
`

// sweepLog is a dsegen-style adaptive-search runlog with barrier records.
const sweepLog = `{"type":"meta","version":1,"seed":7,"samples":8,"workers":4,"search":"adaptive"}
{"type":"heartbeat","elapsed_s":2,"done":4,"failed":0,"total":8,"rows_per_sec":2,"eta_s":2,"cycles":100}
{"type":"barrier","gen":1,"wall_ms":500,"refit_ms":300,"score_ms":200,"pool_scored":64}
{"type":"barrier","gen":2,"wall_ms":500,"refit_ms":300,"score_ms":200,"pool_scored":64}
{"type":"summary","rows":8,"failed":0,"elapsed_s":4,"journal_lines":5,"journal_bytes":400}
`

func writeLog(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestAnalyzeFleetRunlog(t *testing.T) {
	a, err := analyzeRunlog(writeLog(t, "fleet.jsonl", fleetLog))
	if err != nil {
		t.Fatal(err)
	}
	r := a.Report
	if !r.Fleet || r.Workers != 2 || r.Rows != 8 || r.Failed != 0 {
		t.Fatalf("header: %+v", r)
	}
	if !near(r.WallS, 2) || !near(r.RowsPerSec, 4) {
		t.Fatalf("wall/rate: %+v", r)
	}
	if l := r.Leases; l == nil || l.Grants != 3 || l.Completes != 2 || l.Expiries != 1 || l.Steals != 1 {
		t.Fatalf("leases: %+v", r.Leases)
	}
	if len(r.WorkerUtil) != 2 {
		t.Fatalf("worker util: %+v", r.WorkerUtil)
	}
	w1 := r.WorkerUtil[0]
	if w1.Name != "w1" || w1.Rows != 6 || !near(w1.BusyS, 1.6) || !near(w1.BusyFrac, 0.8) || !near(w1.IdleFrac, 0.2) {
		t.Fatalf("w1 util (last util record should win): %+v", w1)
	}
	// w1 held lease 0 for 1.4s and lease 2 for 0.3s.
	if !near(w1.LeaseHeldS, 1.7) || w1.Leases != 2 {
		t.Fatalf("w1 lease holds: %+v", w1)
	}
	if w2 := r.WorkerUtil[1]; w2.Name != "w2" || !near(w2.BusyFrac, 0.25) || w2.Leases != 1 {
		t.Fatalf("w2 util: %+v", w2)
	}
	if len(r.Trajectory) != 2 || !near(r.Trajectory[1].RowsPerSec, 4) {
		t.Fatalf("trajectory: %+v", r.Trajectory)
	}
	if r.Barriers != nil {
		t.Fatalf("fleet run grew barriers: %+v", r.Barriers)
	}

	if len(a.Spans) != 3 {
		t.Fatalf("spans: %+v", a.Spans)
	}
	outcomes := map[int]string{}
	for _, sp := range a.Spans {
		outcomes[sp.Lease] = sp.Outcome
	}
	if outcomes[0] != "committed" || outcomes[1] != "expired" || outcomes[2] != "committed" {
		t.Fatalf("outcomes: %v", outcomes)
	}
	if len(a.Steals) != 1 || a.Steals[0].Victim != "w2" || !near(a.Steals[0].ElapsedS, 1.6) {
		t.Fatalf("steals: %+v", a.Steals)
	}
}

func TestAnalyzeSweepRunlog(t *testing.T) {
	a, err := analyzeRunlog(writeLog(t, "sweep.jsonl", sweepLog))
	if err != nil {
		t.Fatal(err)
	}
	r := a.Report
	if r.Fleet || r.Workers != 4 || r.Leases != nil {
		t.Fatalf("sweep run misread as fleet: %+v", r)
	}
	b := r.Barriers
	if b == nil || b.Generations != 2 || !near(b.WallS, 1) || !near(b.Share, 0.25) || b.PoolScored != 128 {
		t.Fatalf("barriers: %+v", b)
	}
	if len(r.WorkerUtil) != 0 || len(a.Spans) != 0 {
		t.Fatalf("sweep run grew fleet artifacts: %+v", r.WorkerUtil)
	}
}

func TestAnalyzeRunlogTruncated(t *testing.T) {
	// A log that ends mid-run (no summary, open lease) still reports, using
	// the last heartbeat for progress and closing spans at that wall clock.
	lines := strings.Split(strings.TrimSpace(fleetLog), "\n")
	truncated := strings.Join(lines[:6], "\n") + "\n"
	a, err := analyzeRunlog(writeLog(t, "cut.jsonl", truncated))
	if err != nil {
		t.Fatal(err)
	}
	if !near(a.Report.WallS, 1) || a.Report.Rows != 4 {
		t.Fatalf("truncated report: %+v", a.Report)
	}
	for _, sp := range a.Spans {
		if sp.Outcome != "open" || sp.EndS < sp.StartS {
			t.Fatalf("open span not closed at wall clock: %+v", sp)
		}
	}

	if _, err := analyzeRunlog(writeLog(t, "empty.jsonl", "")); err == nil {
		t.Fatal("accepted a runlog with no meta record")
	}
	if _, err := analyzeRunlog(writeLog(t, "junk.jsonl", "not json\n")); err == nil {
		t.Fatal("accepted malformed JSONL")
	}
}

func TestScalingCurve(t *testing.T) {
	pts := scalingCurve([]RunReport{
		{File: "w4.jsonl", Workers: 4, WallS: 3, RowsPerSec: 32},
		{File: "w1.jsonl", Workers: 1, WallS: 8, RowsPerSec: 12},
		{File: "w2.jsonl", Workers: 2, WallS: 4, RowsPerSec: 24},
	})
	if len(pts) != 3 || pts[0].Workers != 1 {
		t.Fatalf("ordering: %+v", pts)
	}
	if !near(pts[0].Speedup, 1) || !near(pts[0].Efficiency, 1) {
		t.Fatalf("baseline: %+v", pts[0])
	}
	if !near(pts[1].Speedup, 2) || !near(pts[1].Efficiency, 1) {
		t.Fatalf("2-worker point: %+v", pts[1])
	}
	if !near(pts[2].Speedup, 8.0/3) || !near(pts[2].Efficiency, 2.0/3) {
		t.Fatalf("4-worker point: %+v", pts[2])
	}
}

func TestRunFormats(t *testing.T) {
	fleet := writeLog(t, "fleet.jsonl", fleetLog)
	sweep := writeLog(t, "sweep.jsonl", sweepLog)

	var out, errb bytes.Buffer
	if code := run([]string{fleet, sweep}, &out, &errb); code != 0 {
		t.Fatalf("text run: code %d, stderr %s", code, errb.String())
	}
	text := out.String()
	for _, want := range []string{"runs", "fleet", "sweep", "worker utilization", "w1", "scaling", "speedup"} {
		if !strings.Contains(text, want) {
			t.Errorf("text output missing %q:\n%s", want, text)
		}
	}

	out.Reset()
	if code := run([]string{"-format", "json", fleet, sweep}, &out, &errb); code != 0 {
		t.Fatalf("json run: code %d, stderr %s", code, errb.String())
	}
	var doc reportDoc
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("json output: %v", err)
	}
	if len(doc.Runs) != 2 || len(doc.Scaling) != 2 {
		t.Fatalf("doc shape: runs=%d scaling=%d", len(doc.Runs), len(doc.Scaling))
	}

	outPath := filepath.Join(t.TempDir(), "trace.json")
	out.Reset()
	if code := run([]string{"-format", "trace", "-out", outPath, fleet}, &out, &errb); code != 0 {
		t.Fatalf("trace run: code %d, stderr %s", code, errb.String())
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var tr obs.ChromeTrace
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("trace output: %v", err)
	}
	if tr.DisplayTimeUnit != "ms" || len(tr.TraceEvents) == 0 {
		t.Fatalf("trace doc: %+v", tr)
	}
	var slices, threads, steals, counters int
	for _, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "X":
			slices++
		case "i":
			steals++
			if ev.S != "t" {
				t.Errorf("instant event without thread scope: %+v", ev)
			}
		case "C":
			counters++
		case "M":
			if ev.Name == "thread_name" {
				threads++
			}
		}
	}
	if slices != 3 || threads != 2 || steals != 1 || counters != 2 {
		t.Fatalf("trace events: slices=%d threads=%d steals=%d counters=%d", slices, threads, steals, counters)
	}
}

func TestRunUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("no args: code %d", code)
	}
	if code := run([]string{"-format", "yaml", "x.jsonl"}, &out, &errb); code != 2 {
		t.Fatalf("bad format: code %d", code)
	}
	if code := run([]string{"-format", "trace", "a.jsonl", "b.jsonl"}, &out, &errb); code != 2 {
		t.Fatalf("trace with two logs: code %d", code)
	}
	if code := run([]string{filepath.Join(t.TempDir(), "missing.jsonl")}, &out, &errb); code != 1 {
		t.Fatalf("missing file: code %d", code)
	}
}
