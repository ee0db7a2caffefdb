package fabric

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestSpecIdentity(t *testing.T) {
	a := NewSpec(1, 100, false)
	b := NewSpec(1, 100, false)
	if a.Meta != b.Meta || a.Digest() != b.Digest() {
		t.Fatal("identical specs disagree")
	}
	if a.Meta != "seed=1 samples=100 paper=false" {
		t.Errorf("meta = %q", a.Meta)
	}
	if other := NewSpec(2, 100, false); other.Meta == a.Meta {
		t.Error("different seeds share an identity stamp")
	}
	// The digest tracks the column layout, not the sampling stream.
	if NewSpec(2, 50, false).Digest() != a.Digest() {
		t.Error("same build, different digest")
	}
	if ColumnsDigest([]string{"a", "b"}, nil, nil) == ColumnsDigest([]string{"ab"}, nil, nil) {
		t.Error("digest does not separate column names")
	}
}

func TestDecodeLeaseRequest(t *testing.T) {
	good := `{"worker":"w1","meta":"seed=1 samples=10 paper=false","columns":"abc"}`
	req, err := DecodeLeaseRequest([]byte(good))
	if err != nil || req.Worker != "w1" {
		t.Fatalf("good request: %+v, %v", req, err)
	}
	for name, bad := range map[string]string{
		"empty":         ``,
		"not-json":      `nope`,
		"unknown-field": `{"worker":"w","meta":"m","columns":"c","extra":1}`,
		"trailing":      good + `{"worker":"w2"}`,
		"no-worker":     `{"meta":"m","columns":"c"}`,
		"no-meta":       `{"worker":"w","columns":"c"}`,
		"wrong-type":    `{"worker":7,"meta":"m"}`,
	} {
		if _, err := DecodeLeaseRequest([]byte(bad)); err == nil {
			t.Errorf("%s request accepted", name)
		}
	}
}

func TestDecodeAdvanceRequest(t *testing.T) {
	good := `{"lease_id":0,"epoch":1,"worker":"w","rows":[` +
		`{"index":0,"features":[1,2],"targets":[3],"aux":[4]},` +
		`{"index":1,"failed":true,"features":[1,2]}]}`
	if _, err := DecodeAdvanceRequest([]byte(good)); err != nil {
		t.Fatalf("good advance: %v", err)
	}
	for name, bad := range map[string]string{
		"zero-epoch":     `{"lease_id":0,"epoch":0,"worker":"w","rows":[{"index":0,"features":[1]}]}`,
		"negative-lease": `{"lease_id":-1,"epoch":1,"worker":"w","rows":[{"index":0,"features":[1]}]}`,
		"no-rows":        `{"lease_id":0,"epoch":1,"worker":"w","rows":[]}`,
		"cursor":         `{"lease_id":0,"epoch":1,"worker":"w","cursor":1,"rows":[{"index":0,"features":[1]}]}`,
		"negative-index": `{"lease_id":0,"epoch":1,"worker":"w","rows":[{"index":-1,"features":[1]}]}`,
		"rows-descending": `{"lease_id":0,"epoch":1,"worker":"w","rows":[` +
			`{"index":1,"features":[1]},{"index":0,"features":[1]}]}`,
		"duplicate-row": `{"lease_id":0,"epoch":1,"worker":"w","rows":[` +
			`{"index":0,"features":[1]},{"index":0,"features":[1]}]}`,
		"featureless-row": `{"lease_id":0,"epoch":1,"worker":"w","rows":[` +
			`{"index":0}]}`,
		"failed-with-payload": `{"lease_id":0,"epoch":1,"worker":"w","rows":[` +
			`{"index":0,"failed":true,"features":[1],"targets":[2]}]}`,
	} {
		if _, err := DecodeAdvanceRequest([]byte(bad)); err == nil {
			t.Errorf("%s advance accepted", name)
		}
	}
}

func TestDecodeHeartbeatRequest(t *testing.T) {
	if _, err := DecodeHeartbeatRequest([]byte(`{"lease_id":3,"epoch":2,"worker":"w"}`)); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		`{"lease_id":3,"epoch":0,"worker":"w"}`,
		`{"lease_id":3,"epoch":1}`,
		`[]`,
	} {
		if _, err := DecodeHeartbeatRequest([]byte(bad)); err == nil {
			t.Errorf("heartbeat %s accepted", bad)
		}
	}
}

// FuzzLeaseRequestDecode hammers the wire decoders with arbitrary bytes.
// Every decoder must be total (no panics), deterministic, and — when it
// accepts — return a message that satisfies its own validation contract and
// survives a marshal/decode round trip unchanged.
func FuzzLeaseRequestDecode(f *testing.F) {
	f.Add([]byte(`{"worker":"w1","meta":"seed=1 samples=10 paper=false","columns":"1a2b"}`))
	f.Add([]byte(`{"worker":"","meta":""}`))
	f.Add([]byte(`{"worker":"w","meta":"m","columns":"c","extra":true}`))
	f.Add([]byte(`{"lease_id":0,"epoch":1,"worker":"w","rows":[{"index":0,"features":[0.5]},{"index":1,"failed":true,"features":[1e300]}]}`))
	f.Add([]byte(`{"lease_id":2,"epoch":3,"worker":"w"}`))
	f.Add([]byte(`{"worker":"w","meta":"m"}{"worker":"z","meta":"m"}`))
	f.Add([]byte(`[{"worker":"w"}]`))
	f.Add([]byte("\xff\xfe{"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeLeaseRequest(data); err == nil {
			if req.Worker == "" || req.Meta == "" {
				t.Fatalf("accepted lease request with empty identity: %+v", req)
			}
			reencoded, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			again, err := DecodeLeaseRequest(reencoded)
			if err != nil || again != req {
				t.Fatalf("lease request does not round-trip: %+v -> %+v (%v)", req, again, err)
			}
		}
		if req, err := DecodeAdvanceRequest(data); err == nil {
			if req.Epoch < 1 || req.LeaseID < 0 || req.Worker == "" || len(req.Rows) == 0 {
				t.Fatalf("accepted invalid advance: %+v", req)
			}
			last := -1
			for _, r := range req.Rows {
				if r.Index <= last || len(r.Features) == 0 {
					t.Fatalf("accepted malformed rows: %+v", req.Rows)
				}
				if r.Failed && (len(r.Targets) != 0 || len(r.Aux) != 0) {
					t.Fatalf("accepted failed row with payload: %+v", r)
				}
				last = r.Index
			}
		}
		if req, err := DecodeHeartbeatRequest(data); err == nil {
			if req.Epoch < 1 || req.LeaseID < 0 || req.Worker == "" {
				t.Fatalf("accepted invalid heartbeat: %+v", req)
			}
		}
	})
}

// TestWireRowFloatRoundTrip pins the byte-identity foundation: float64
// values survive a JSON round trip bit-exactly, so a row uploaded over the
// wire journals identically to one simulated locally.
func TestWireRowFloatRoundTrip(t *testing.T) {
	values := []float64{0, 1.0 / 3.0, 2.6855e-5, 1e300, 4.9e-324, 123456789.123456789}
	row := WireRow{Index: 1, Features: values}
	data, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	var back WireRow
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		if back.Features[i] != v {
			t.Errorf("feature %d: %v -> %v", i, v, back.Features[i])
		}
	}
	if strings.Contains(string(data), "targets") {
		t.Error("empty targets serialized")
	}
}
