package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
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

// TestRunVLOverrideAndHW runs a vector-length override on the
// hardware-proxy backend. The removed -hw alias must be rejected as an
// unknown flag.
func TestRunVLOverrideAndHW(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-app", "STREAM", "-vl", "1024", "-mem", "proxy"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "vl=1024") {
		t.Errorf("output = %q", out.String())
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
