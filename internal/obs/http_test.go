package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry(2)
	r.Counter("armdse_runs_total", "Runs.", L("app", "STREAM")).Add(0, 4)
	status := func() any { return map[string]int{"done": 4} }
	srv := httptest.NewServer(Handler(r, status))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, `armdse_runs_total{app="STREAM"} 4`) {
		t.Errorf("/metrics: code %d body %q", code, body)
	}

	code, body = get("/status")
	if code != http.StatusOK {
		t.Fatalf("/status: code %d", code)
	}
	var st map[string]int
	if err := json.Unmarshal([]byte(body), &st); err != nil || st["done"] != 4 {
		t.Errorf("/status body %q (err %v)", body, err)
	}

	code, body = get("/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars: code %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil || len(snap.Families) != 1 {
		t.Errorf("/debug/vars body %q (err %v)", body, err)
	}

	if code, _ = get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: code %d", code)
	}
	if code, _ = get("/"); code != http.StatusOK {
		t.Errorf("/: code %d", code)
	}
	if code, _ = get("/nope"); code != http.StatusNotFound {
		t.Errorf("/nope: code %d, want 404", code)
	}
}

func TestHandlerNilStatus(t *testing.T) {
	srv := httptest.NewServer(Handler(NewRegistry(1), nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/status with nil fn: code %d, want 404", resp.StatusCode)
	}
}

func TestServeBindsAndServes(t *testing.T) {
	r := NewRegistry(1)
	srv, addr, err := Serve("127.0.0.1:0", Handler(r, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !strings.Contains(addr, ":") || strings.HasSuffix(addr, ":0") {
		t.Fatalf("bound addr %q not resolved", addr)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/metrics over Serve: code %d", resp.StatusCode)
	}
}

func TestRunlogPath(t *testing.T) {
	for flag, want := range map[string]string{
		"":       "ds.csv.runlog.jsonl",
		"none":   "",
		"off":    "",
		"x.json": "x.json",
	} {
		if got := RunlogPath(flag, "ds.csv"); got != want {
			t.Errorf("RunlogPath(%q) = %q, want %q", flag, got, want)
		}
	}
}

func TestJournal(t *testing.T) {
	path := t.TempDir() + "/run.jsonl"
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.WriteLine([]byte(`{"type":"meta"}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.WriteLine([]byte(`{"type":"summary"}`)); err != nil {
		t.Fatal(err)
	}
	lines, bytes := j.Stats()
	if lines != 2 || bytes != int64(len(`{"type":"meta"}`)+len(`{"type":"summary"}`)+2) {
		t.Errorf("stats = %d lines %d bytes", lines, bytes)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var nilJ *Journal
	if err := nilJ.WriteLine([]byte("x")); err != nil {
		t.Errorf("nil journal WriteLine: %v", err)
	}
	if err := nilJ.Close(); err != nil {
		t.Errorf("nil journal Close: %v", err)
	}
}
