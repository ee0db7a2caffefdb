package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSnapshotValidateRejects: Validate, the gate for snapshots arriving
// off the wire, refuses every structural invariant a registry never breaks.
func TestSnapshotValidateRejects(t *testing.T) {
	cases := map[string]string{
		"bad kind":         `{"families":[{"name":"m","kind":"elephant","series":[]}]}`,
		"empty name":       `{"families":[{"name":"","kind":"counter","series":[]}]}`,
		"negative bucket":  `{"families":[{"name":"h","kind":"histogram","series":[{"buckets":[-1]}]}]}`,
		"negative count":   `{"families":[{"name":"h","kind":"histogram","series":[{"count":-1}]}]}`,
		"negative shard":   `{"families":[{"name":"c","kind":"counter","series":[{"per_shard":[-1]}]}]}`,
		"too many buckets": `{"families":[{"name":"h","kind":"histogram","series":[{"buckets":[` + strings.Repeat("0,", NumHistBuckets) + `0]}]}]}`,
		"negative scale":   `{"families":[{"name":"h","kind":"histogram","scale":-1,"series":[]}]}`,
		"empty label key":  `{"families":[{"name":"m","kind":"gauge","series":[{"labels":[{"key":"","value":"x"}],"value":1}]}]}`,
	}
	for name, in := range cases {
		var s Snapshot
		if err := json.Unmarshal([]byte(in), &s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
	r := NewRegistry(2)
	r.Counter("armdse_runs_total", "runs", L("app", "STREAM")).Add(1, 7)
	r.TimeHistogram("armdse_wall_nanoseconds", "wall").Observe(0, 12345)
	if err := r.Snapshot().Validate(); err != nil {
		t.Errorf("registry snapshot rejected: %v", err)
	}
}

// FuzzSnapshotRoundTrip: a snapshot that passes Validate, as the fabric
// accepts one off the wire, survives a JSON round trip to a fixed point, so
// a worker's telemetry re-encodes byte-identically on the coordinator.
func FuzzSnapshotRoundTrip(f *testing.F) {
	r := NewRegistry(2)
	r.Counter("armdse_runs_total", "runs", L("app", "STREAM")).Add(0, 7)
	r.Gauge("armdse_eta_seconds", "eta").Set(1.5)
	r.TimeHistogram("armdse_wall_nanoseconds", "wall").Observe(1, 12345)
	seed, err := json.Marshal(r.Snapshot())
	if err != nil {
		f.Fatalf("seed encode: %v", err)
	}
	f.Add(seed)
	f.Add([]byte(`{"families":[]}`))
	f.Add([]byte(`{"families":[{"name":"m","kind":"histogram","scale":1e9,"series":[{"buckets":[0,2,1],"count":3,"sum":9}]}]}`))
	f.Add([]byte(`garbage`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Snapshot
		if json.Unmarshal(data, &s) != nil || s.Validate() != nil {
			return // malformed inputs only need to be rejected cleanly
		}
		enc1, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("encode of a valid snapshot failed: %v", err)
		}
		var s2 Snapshot
		if err := json.Unmarshal(enc1, &s2); err != nil {
			t.Fatalf("decode of its encoding failed: %v\n%s", err, enc1)
		}
		if err := s2.Validate(); err != nil {
			t.Fatalf("re-decoded snapshot no longer valid: %v\n%s", err, enc1)
		}
		enc2, err := json.Marshal(s2)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encoding not a fixed point:\n%s\n%s", enc1, enc2)
		}
	})
}
