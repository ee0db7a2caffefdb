package fabric

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"armdse/internal/obs"
)

func TestWorkerTelemetryRoundTrip(t *testing.T) {
	r := obs.NewRegistry(2)
	r.Counter("armdse_runs_total", "runs").Add(0, 9)
	r.TimeHistogram("armdse_config_wall_nanoseconds", "wall").Observe(0, 4200)
	in := WorkerTelemetry{BusyNs: 3e9, UpNs: 5e9, Snap: r.Snapshot()}

	wire, err := EncodeTelemetry(in)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, err := DecodeTelemetry(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.BusyNs != in.BusyNs || out.UpNs != in.UpNs {
		t.Fatalf("busy/up changed: %+v", out)
	}
	a, _ := json.Marshal(in.Snap)
	b, _ := json.Marshal(out.Snap)
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshot changed on the wire:\n%s\n%s", a, b)
	}
}

// gzipJSON compresses a hand-built JSON body the way EncodeTelemetry would.
func gzipJSON(t *testing.T, body string) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(body)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDecodeTelemetryRejects(t *testing.T) {
	cases := map[string][]byte{
		"not gzip":       []byte("plain bytes"),
		"unknown field":  gzipJSON(t, `{"busy_ns":1,"up_ns":2,"snap":{"families":[]},"extra":1}`),
		"trailing data":  gzipJSON(t, `{"busy_ns":1,"up_ns":2,"snap":{"families":[]}} {}`),
		"negative busy":  gzipJSON(t, `{"busy_ns":-1,"up_ns":2,"snap":{"families":[]}}`),
		"busy beyond up": gzipJSON(t, `{"busy_ns":3,"up_ns":2,"snap":{"families":[]}}`),
		"bad snapshot":   gzipJSON(t, `{"busy_ns":1,"up_ns":2,"snap":{"families":[{"name":"m","kind":"elephant","series":[]}]}}`),
	}
	for name, wire := range cases {
		if _, err := DecodeTelemetry(wire); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Decompressed payloads past the size cap are rejected before parsing.
	huge := gzipJSON(t, strings.Repeat("a", maxTelemetryBytes+1))
	if _, err := DecodeTelemetry(huge); err == nil || !strings.Contains(err.Error(), "decompressed") {
		t.Errorf("oversized payload: err = %v", err)
	}
}

func TestFlagStragglers(t *testing.T) {
	flags, threshold := FlagStragglers(nil, StragglerFactor, StragglerFloorS)
	if len(flags) != 0 || threshold != StragglerFloorS {
		t.Fatalf("empty fleet: flags=%v threshold=%v", flags, threshold)
	}
	// Sub-second jitter stays under the floor even with a relative outlier.
	flags, threshold = FlagStragglers([]float64{0.1, 0.2, 0.9}, 4, 5)
	for i, f := range flags {
		if f {
			t.Fatalf("quiet fleet flagged worker %d (threshold %v)", i, threshold)
		}
	}
	// One worker far past 4x the median age is a straggler.
	flags, threshold = FlagStragglers([]float64{2, 3, 4, 60}, 4, 5)
	if want := 14.0; threshold != want { // median of the middle pair (3, 4) is 3.5
		t.Fatalf("threshold = %v, want %v", threshold, want)
	}
	if flags[0] || flags[1] || flags[2] || !flags[3] {
		t.Fatalf("flags = %v, want only the last", flags)
	}
	// Even-sized fleets use the middle pair's mean.
	_, threshold = FlagStragglers([]float64{2, 4}, 4, 5)
	if want := 12.0; threshold != want {
		t.Fatalf("even median threshold = %v, want %v", threshold, want)
	}
}

// TestFleetTelemetryAggregation runs a real 2-worker fleet and checks the
// whole observability plane: piggybacked snapshots aggregate into
// armdse_fleet_* metrics with per-worker labels, /status carries busy
// fractions, and the runlog journals util records alongside heartbeats.
func TestFleetTelemetryAggregation(t *testing.T) {
	dir := t.TempDir()
	runlogPath := filepath.Join(dir, "fleet.runlog.jsonl")
	spec := NewSpec(11, 12, false)
	coord, srv := newTestCoordinator(t, CoordConfig{
		Spec: spec, Out: filepath.Join(dir, "fleet.csv"),
		LeaseSize: 2, Expiry: time.Minute,
		HeartbeatEvery: time.Nanosecond, // journal a heartbeat+util batch per completed lease
		Runlog:         runlogPath,
	})

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	errs := make(chan error, 2)
	for _, name := range []string{"w1", "w2"} {
		go func(name string) {
			errs <- RunWorker(ctx, WorkerConfig{
				Coord: srv.URL, Name: name, Threads: 2,
				PollEvery: 10 * time.Millisecond, Client: srv.Client(),
			})
		}(name)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	ds, failed, err := coord.Merge()
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if err := coord.Finish(ds.Len(), failed); err != nil {
		t.Fatal(err)
	}

	snap := coord.FleetSnapshot()
	fams := map[string]obs.FamilySnapshot{}
	for _, f := range snap.Families {
		if strings.HasPrefix(f.Name, "armdse_sweep_") || !strings.HasPrefix(f.Name, "armdse_fleet_") {
			t.Fatalf("unexpected family %q in fleet snapshot", f.Name)
		}
		fams[f.Name] = f
	}
	if got := fams["armdse_fleet_workers"].Series[0].Value; got != 2 {
		t.Fatalf("armdse_fleet_workers = %v, want 2", got)
	}
	runs, ok := fams["armdse_fleet_runs_total"]
	if !ok {
		t.Fatalf("no armdse_fleet_runs_total family; have %v", keysOf(fams))
	}
	// One merged series plus one per worker, per app label.
	if want := 3 * len(spec.Apps); len(runs.Series) != want {
		t.Fatalf("runs series = %d, want %d (merged + 2 workers, per app)", len(runs.Series), want)
	}
	frac, ok := fams["armdse_fleet_worker_busy_fraction"]
	if !ok || len(frac.Series) != 2 {
		t.Fatalf("busy fraction series missing: %+v", frac)
	}
	for _, s := range frac.Series {
		if s.Value <= 0 || s.Value > 1 {
			t.Fatalf("busy fraction %v out of (0, 1]: %+v", s.Value, s.Labels)
		}
	}

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"armdse_fabric_rows_total 12",
		`armdse_fleet_worker_busy_seconds{worker="w1"}`,
		`armdse_fleet_runs_total{`,
		`worker="w2"`,
		"armdse_fleet_workers 2",
	} {
		if !strings.Contains(string(expo), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	st := coord.Status()
	if len(st.Workers) != 2 {
		t.Fatalf("status workers = %d", len(st.Workers))
	}
	for _, ws := range st.Workers {
		if ws.BusyS <= 0 || ws.UpS <= 0 || ws.BusyFrac <= 0 || ws.BusyFrac > 1 {
			t.Fatalf("worker %s utilization not populated: %+v", ws.Name, ws)
		}
		if ws.Straggler {
			t.Fatalf("worker %s flagged straggler in a live fleet", ws.Name)
		}
	}
	if st.StragglerLagS < StragglerFloorS {
		t.Fatalf("straggler threshold %v below floor", st.StragglerLagS)
	}

	log, err := os.ReadFile(runlogPath)
	if err != nil {
		t.Fatal(err)
	}
	var utils, leases int
	for _, line := range strings.Split(strings.TrimSpace(string(log)), "\n") {
		if strings.Contains(line, `"type":"util"`) {
			utils++
			if !strings.Contains(line, `"busy_s"`) || !strings.Contains(line, `"worker"`) {
				t.Fatalf("util record missing fields: %s", line)
			}
		}
		if strings.Contains(line, `"type":"lease"`) {
			leases++
			if !strings.Contains(line, `"elapsed_s"`) {
				t.Fatalf("lease record missing elapsed_s: %s", line)
			}
		}
	}
	if utils == 0 {
		t.Fatal("no util records journaled")
	}
	if leases == 0 {
		t.Fatal("no lease records journaled")
	}
}

func keysOf(m map[string]obs.FamilySnapshot) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
