package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"armdse/internal/obs"
)

func TestTraceOutput(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-app", "miniBUDE", "-n", "5"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{"seq", "dispatch", "commit", "total:", "SVE_FMA", "LOAD"} {
		if !strings.Contains(s, frag) {
			t.Errorf("output missing %q", frag)
		}
	}
	// Exactly 5 trace rows between the header and the summary.
	lines := strings.Split(s, "\n")
	rows := 0
	for _, l := range lines {
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
	if err := run([]string{"-app", "STREAM", "-vl", "512", "-n", "2"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "total:") {
		t.Error("missing summary")
	}
}

// TestChromeTraceRoundTrip runs -format trace and checks the output is a
// well-formed Chrome trace: it parses, instruction slices never overlap
// within a lane, stall intervals tile the run, and every lifetime stamp is
// ordered dispatch <= issue <= done <= commit.
func TestChromeTraceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out, errBuf bytes.Buffer
	if err := run([]string{"-app", "miniBUDE", "-format", "trace", "-out", path}, &out, &errBuf); err != nil {
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
	// The stall tracks tile the whole run, so their total duration equals the
	// run's cycle count — which the text format reports independently.
	var text bytes.Buffer
	if err := run([]string{"-app", "miniBUDE", "-n", "0"}, &text, &errBuf); err != nil {
		t.Fatal(err)
	}
	var retired, cycles int64
	var ipc float64
	if _, err := fmt.Sscanf(firstLineContaining(t, text.String(), "total:"),
		"total: %d instructions in %d cycles (IPC %f)", &retired, &cycles, &ipc); err != nil {
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
}

func firstLineContaining(t *testing.T, s, frag string) string {
	t.Helper()
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, frag) {
			return l
		}
	}
	t.Fatalf("no line containing %q", frag)
	return ""
}

func TestTraceErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-app", "nope"}, &buf, &buf); err == nil {
		t.Error("unknown app accepted")
	}
	if err := run([]string{"-config", "/no/file.json"}, &buf, &buf); err == nil {
		t.Error("missing config accepted")
	}
	if err := run([]string{"-vl", "99"}, &buf, &buf); err == nil {
		t.Error("invalid VL accepted")
	}
	if err := run([]string{"-format", "xml"}, &buf, &buf); err == nil {
		t.Error("unknown format accepted")
	}
}
