package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"armdse/internal/obs"
	"armdse/internal/simeng"
)

func TestRunBaseline(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-app", "miniBUDE", "-v"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{"app=miniBUDE", "cycles:", "IPC", "port utilisation"} {
		if !strings.Contains(s, frag) {
			t.Errorf("output missing %q:\n%s", frag, s)
		}
	}
}

func TestRunDumpAndLoadConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tx2.json")
	var out, errBuf bytes.Buffer
	if err := run([]string{"-dump-baseline", path}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-config", path, "-app", "MiniSweep"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "app=MiniSweep") {
		t.Errorf("output = %q", out.String())
	}
}

// TestRunVLOverrideAndHW runs a vector-length override on the Table I
// hardware reference, a High-fidelity config file: the config alone picks
// the memory model, so the removed -mem proxy must be rejected with an error
// naming the two backends, and the removed -hw alias as an unknown flag.
func TestRunVLOverrideAndHW(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tx2-high.json")
	var out, errBuf bytes.Buffer
	if err := run([]string{"-dump-baseline", path}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	high := strings.Replace(string(raw), `"Fidelity": 0`, `"Fidelity": 1`, 1)
	if high == string(raw) {
		t.Fatalf("baseline dump has no Basic fidelity field:\n%s", raw)
	}
	if err := os.WriteFile(path, []byte(high), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-config", path, "-app", "STREAM", "-vl", "1024"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "vl=1024") {
		t.Errorf("output = %q", out.String())
	}
	err = run([]string{"-app", "STREAM", "-mem", "proxy"}, &out, &errBuf)
	if err == nil {
		t.Fatal("removed -mem proxy accepted")
	}
	for _, want := range []string{"proxy", "sst", "flat"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("-mem proxy error %q does not mention %q", err, want)
		}
	}
	if err := run([]string{"-app", "STREAM", "-hw"}, &out, &errBuf); err == nil {
		t.Error("removed -hw flag accepted")
	}
}

// TestRunEvalFlag checks that the removed evaluator and monitor flags are
// rejected as unknown: dserun always simulates exactly.
func TestRunEvalFlag(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		{"-app", "STREAM", "-eval", "bound"},
		{"-app", "STREAM", "-eval-escalate", "1"},
		{"-app", "STREAM", "-http", ":0"},
		{"-app", "STREAM", "-http-linger", "1s"},
	} {
		if err := run(args, &buf, &buf); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("removed flag %s: err = %v, want unknown flag", args[2], err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-app", "nope"}, &buf, &buf); err == nil {
		t.Error("unknown app accepted")
	}
	if err := run([]string{"-config", "/does/not/exist.json"}, &buf, &buf); err == nil {
		t.Error("missing config accepted")
	}
	if err := run([]string{"-vl", "100"}, &buf, &buf); err == nil {
		t.Error("invalid VL accepted")
	}
	if err := run([]string{"-bogus"}, &buf, &buf); err == nil {
		t.Error("bad flag accepted")
	}
}

// statsBlock returns the run statistics of a dserun stdout: everything from
// the "app=" line on, after any trace block.
func statsBlock(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "app=")
	if i < 0 {
		t.Fatalf("no stats block in output:\n%s", out)
	}
	return out[i:]
}

// TestTracingDoesNotPerturbStats checks that the traced run is the run: on
// every app, the stats printed alongside both trace outputs equal those of
// an untraced invocation.
func TestTracingDoesNotPerturbStats(t *testing.T) {
	chrome := filepath.Join(t.TempDir(), "f.json")
	for _, app := range []string{"STREAM", "miniBUDE", "TeaLeaf", "MiniSweep"} {
		var plain, traced, errBuf bytes.Buffer
		if err := run([]string{"-app", app, "-v"}, &plain, &errBuf); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"-app", app, "-v", "-trace", "40", "-chrome", chrome}, &traced, &errBuf); err != nil {
			t.Fatal(err)
		}
		if got, want := statsBlock(t, traced.String()), plain.String(); got != want {
			t.Errorf("%s: traced stats differ from untraced:\n%s\nwant:\n%s", app, got, want)
		}
	}
}

func TestTraceOutput(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-app", "miniBUDE", "-trace", "5"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{"seq", "dispatch", "commit", "total:", "SVE_FMA", "LOAD", "app=miniBUDE"} {
		if !strings.Contains(s, frag) {
			t.Errorf("output missing %q", frag)
		}
	}
	// Exactly 5 trace rows between the header and the summary.
	rows := 0
	for _, l := range strings.Split(s, "\n") {
		if strings.HasPrefix(l, "0 ") || strings.HasPrefix(l, "1 ") ||
			strings.HasPrefix(l, "2 ") || strings.HasPrefix(l, "3 ") ||
			strings.HasPrefix(l, "4 ") {
			rows++
		}
	}
	if rows != 5 {
		t.Errorf("trace rows = %d, want 5", rows)
	}
}

func TestTraceVLOverride(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-app", "STREAM", "-vl", "512", "-trace", "2"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"total:", "vl=512"} {
		if !strings.Contains(out.String(), frag) {
			t.Errorf("output missing %q", frag)
		}
	}
}

// TestChromeTraceRoundTrip runs -chrome and checks the output is a
// well-formed Chrome trace: it parses, instruction slices never overlap
// within a lane, every lifetime stamp is ordered dispatch <= issue <= done
// <= commit, and the trace accounts for the run the same invocation
// reports: the stall tracks tile its cycles and the instruction slices
// cover its retired count. Under a cycle budget the traced run fails like
// any other and writes no file.
func TestChromeTraceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out, errBuf bytes.Buffer
	if err := run([]string{"-app", "miniBUDE", "-chrome", path}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr obs.ChromeTrace
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}

	laneEnd := map[[2]int]float64{} // (pid, tid) -> end of last slice
	var instr, dropped, stallCycles int64
	classes := map[string]bool{}
	for _, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "dropped_instructions" {
				dropped = int64(ev.Args["dropped"].(float64))
			}
			continue
		case "X":
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
		if ev.Dur <= 0 {
			t.Fatalf("non-positive duration: %+v", ev)
		}
		key := [2]int{ev.Pid, ev.Tid}
		if ev.Ts < laneEnd[key] {
			t.Fatalf("overlapping slices on pid %d tid %d at ts %g", ev.Pid, ev.Tid, ev.Ts)
		}
		laneEnd[key] = ev.Ts + ev.Dur
		switch ev.Pid {
		case pidInstructions:
			instr++
			d := int64(ev.Args["dispatched"].(float64))
			i := int64(ev.Args["issued"].(float64))
			dn := int64(ev.Args["done"].(float64))
			c := int64(ev.Args["committed"].(float64))
			if !(d <= i && i <= dn && dn <= c) {
				t.Fatalf("lifetime out of order: dispatch %d issue %d done %d commit %d", d, i, dn, c)
			}
		case pidStalls:
			stallCycles += int64(ev.Dur)
			classes[ev.Name] = true
		}
	}
	if instr == 0 || stallCycles == 0 {
		t.Fatalf("instr events %d, stall cycles %d", instr, stallCycles)
	}
	var cycles, retired int64
	var ipc float64
	if _, err := fmt.Sscanf(lineStarting(t, out.String(), "cycles:"), "cycles: %d", &cycles); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscanf(lineStarting(t, out.String(), "retired:"), "retired: %d (IPC %f)", &retired, &ipc); err != nil {
		t.Fatal(err)
	}
	if stallCycles != cycles {
		t.Errorf("stall tracks cover %d cycles, run took %d", stallCycles, cycles)
	}
	if instr+dropped != retired {
		t.Errorf("trace has %d instructions (+%d dropped), run retired %d", instr, dropped, retired)
	}
	if dropped != 0 {
		t.Errorf("baseline ROB fits in maxLanes, yet %d instructions dropped", dropped)
	}
	if !classes["busy"] {
		t.Errorf("no busy track in %v", classes)
	}

	bounded := filepath.Join(t.TempDir(), "bounded.json")
	err = run([]string{"-app", "miniBUDE", "-paper", "-max-cycles", "1000", "-chrome", bounded}, &out, &errBuf)
	if !errors.Is(err, simeng.ErrCycleLimit) {
		t.Fatalf("traced run under -max-cycles 1000: err = %v, want the cycle-budget error", err)
	}
	if _, err := os.Stat(bounded); !os.IsNotExist(err) {
		t.Errorf("failed run left a trace file (stat err = %v)", err)
	}
}

func lineStarting(t *testing.T, s, frag string) string {
	t.Helper()
	for _, l := range strings.Split(s, "\n") {
		if strings.HasPrefix(l, frag) {
			return l
		}
	}
	t.Fatalf("no line starting with %q", frag)
	return ""
}

// TestTraceErrors checks the traced run's error paths, including the
// removed dsetrace flags (the trace depth is -trace, the export -chrome).
func TestTraceErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-app", "nope", "-trace", "5"}, &buf, &buf); err == nil {
		t.Error("unknown app accepted")
	}
	if err := run([]string{"-config", "/no/file.json", "-trace", "5"}, &buf, &buf); err == nil {
		t.Error("missing config accepted")
	}
	if err := run([]string{"-vl", "99", "-trace", "5"}, &buf, &buf); err == nil {
		t.Error("invalid VL accepted")
	}
	if err := run([]string{"-trace", "-1"}, &buf, &buf); err == nil {
		t.Error("negative -trace accepted")
	}
	if err := run([]string{"-app", "miniBUDE", "-chrome", filepath.Join(t.TempDir(), "no", "dir", "t.json")}, &buf, &buf); err == nil {
		t.Error("unwritable -chrome path accepted")
	}
	for _, args := range [][]string{
		{"-format", "trace"}, {"-out", "t.json"}, {"-n", "5"}, {"-limit", "10"},
	} {
		if err := run(args, &buf, &buf); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("removed flag %s: err = %v, want unknown flag", args[0], err)
		}
	}
}
