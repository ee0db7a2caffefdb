package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestSanitizeMetricName(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", "_"},
		{"ok_name:x", "ok_name:x"},
		{"9leading", "_leading"},
		{"has-dash.dot", "has_dash_dot"},
		{"sp ace", "sp_ace"},
		{"armdse_runs_total", "armdse_runs_total"},
	} {
		if got := SanitizeMetricName(tc.in); got != tc.want {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestSanitizeLabelName(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", "_"},
		{"app", "app"},
		{"with:colon", "with_colon"}, // labels, unlike metrics, forbid colons
		{"1st", "_st"},
	} {
		if got := SanitizeLabelName(tc.in); got != tc.want {
			t.Errorf("SanitizeLabelName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestEscapeLabelValue(t *testing.T) {
	for in, want := range map[string]string{
		"":                      "",
		"plain":                 "plain",
		`back\slash`:            `back\\slash`,
		`quo"te`:                `quo\"te`,
		"new\nline":             `new\nline`,
		`all\"three` + "\n":     `all\\\"three\n`,
		"unicode ✓ λ":           "unicode ✓ λ",
		string([]byte{0, 1, 2}): string([]byte{0, 1, 2}),
		"a\"b\\c\nd":            `a\"b\\c\nd`,
	} {
		if got := EscapeLabelValue(in); got != want {
			t.Errorf("EscapeLabelValue(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheusCountersAndGauges(t *testing.T) {
	r := NewRegistry(2)
	r.Counter("runs_total", "Completed runs.", L("app", "STREAM")).Add(0, 3)
	r.Counter("runs_total", "Completed runs.", L("app", `we"ird\app`+"\n")).Add(1, 2)
	r.Gauge("eta_seconds", "").Set(1.5)

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := []string{
		"# TYPE eta_seconds gauge\n",
		"eta_seconds 1.5\n",
		"# HELP runs_total Completed runs.\n",
		"# TYPE runs_total counter\n",
		`runs_total{app="STREAM"} 3` + "\n",
		`runs_total{app="we\"ird\\app\n"} 2` + "\n",
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("output missing %q\n%s", w, out)
		}
	}
	// eta_seconds sorts before runs_total.
	if strings.Index(out, "eta_seconds") > strings.Index(out, "runs_total") {
		t.Error("families not in name order")
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	r := NewRegistry(4)
	r.Counter("a_total", "", L("x", "2")).Inc(0)
	r.Counter("a_total", "", L("x", "1")).Inc(1)
	r.Histogram("h_ns", "").Observe(0, 100)
	snap := r.Snapshot()
	var b1, b2 strings.Builder
	if err := WritePrometheus(&b1, snap); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b2, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Errorf("two expositions of the same state differ:\n%s\nvs\n%s", b1.String(), b2.String())
	}
}

func TestWritePrometheusHistogram(t *testing.T) {
	r := NewRegistry(1)
	h := r.Histogram("lat_ns", "Latency.")
	h.Observe(0, 1) // bucket 1, le=1
	h.Observe(0, 3) // bucket 2, le=3
	h.Observe(0, 3)

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := []string{
		"# TYPE lat_ns histogram\n",
		`lat_ns_bucket{le="0"} 0` + "\n",
		`lat_ns_bucket{le="1"} 1` + "\n",
		`lat_ns_bucket{le="3"} 3` + "\n",
		`lat_ns_bucket{le="+Inf"} 3` + "\n",
		"lat_ns_sum 7\n",
		"lat_ns_count 3\n",
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("output missing %q\n%s", w, out)
		}
	}
	// Empty tail buckets beyond the last occupied one must be trimmed.
	if strings.Contains(out, `le="7"`) {
		t.Errorf("empty tail bucket not trimmed:\n%s", out)
	}
	// Buckets are cumulative and non-decreasing.
	if strings.Index(out, `le="1"`) > strings.Index(out, `le="3"`) {
		t.Error("buckets out of order")
	}
}

// A TimeHistogram stores nanoseconds but exposes seconds: le bounds and the
// sum are divided by TimeScale at exposition, counts are untouched.
func TestWritePrometheusTimeHistogram(t *testing.T) {
	r := NewRegistry(1)
	h := r.TimeHistogram("barrier_seconds", "Barrier wall time.")
	h.Observe(0, 1)             // 1ns: bucket 1, le = 1e-09 s
	h.Observe(0, 1_500_000_000) // 1.5s: bucket 31, le = (2^31-1)/1e9 s

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := []string{
		"# TYPE barrier_seconds histogram\n",
		`barrier_seconds_bucket{le="1e-09"} 1` + "\n",
		`barrier_seconds_bucket{le="2.147483647"} 2` + "\n",
		`barrier_seconds_bucket{le="+Inf"} 2` + "\n",
		"barrier_seconds_sum 1.500000001\n",
		"barrier_seconds_count 2\n",
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("output missing %q\n%s", w, out)
		}
	}
	// The snapshot records the scale so JSON consumers can undo it.
	snap := r.Snapshot()
	if snap.Families[0].Scale != TimeScale {
		t.Errorf("snapshot scale = %g, want %g", snap.Families[0].Scale, float64(TimeScale))
	}
}

func TestHistogramScaleConflictPanics(t *testing.T) {
	r := NewRegistry(1)
	r.Histogram("h_mixed", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a histogram under a different scale did not panic")
		}
	}()
	r.TimeHistogram("h_mixed", "")
}

func TestFormatValue(t *testing.T) {
	r := NewRegistry(1)
	r.Gauge("g1", "").Set(3)
	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "g1 3\n") {
		t.Errorf("integral gauge not rendered without exponent: %s", b.String())
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	r := NewRegistry(2)
	r.Counter("c_total", "help", L("app", "x")).Add(0, 5)
	r.Histogram("h_ns", "").Observe(1, 9)
	var b strings.Builder
	if err := WriteJSON(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if len(back.Families) != 2 {
		t.Fatalf("families = %d", len(back.Families))
	}
	if back.Families[0].Name != "c_total" || back.Families[0].Series[0].Value != 5 {
		t.Errorf("counter round-trip: %+v", back.Families[0])
	}
	if back.Families[1].Series[0].Sum != 9 {
		t.Errorf("histogram round-trip: %+v", back.Families[1])
	}
}

func FuzzSanitizeMetricName(f *testing.F) {
	f.Add("armdse_runs_total")
	f.Add("")
	f.Add("9-bad name\x00")
	f.Fuzz(func(t *testing.T, s string) {
		out := SanitizeMetricName(s)
		if out == "" {
			t.Fatalf("empty output for %q", s)
		}
		for i := 0; i < len(out); i++ {
			c := out[i]
			ok := c == '_' || c == ':' ||
				(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
				(c >= '0' && c <= '9' && i > 0)
			if !ok {
				t.Fatalf("SanitizeMetricName(%q) = %q: invalid byte %q at %d", s, out, c, i)
			}
		}
		if again := SanitizeMetricName(out); again != out {
			t.Fatalf("not idempotent: %q -> %q -> %q", s, out, again)
		}
	})
}

func FuzzEscapeLabelValue(f *testing.F) {
	f.Add("plain")
	f.Add(`a\b"c` + "\nd")
	f.Add(string([]byte{0xff, 0xfe}))
	f.Fuzz(func(t *testing.T, s string) {
		esc := EscapeLabelValue(s)
		if strings.ContainsRune(esc, '\n') {
			t.Fatalf("EscapeLabelValue(%q) = %q contains a raw newline", s, esc)
		}
		// Every quote must be escaped, so an escaped value never terminates
		// the exposition's quoted string early.
		for i := 0; i < len(esc); i++ {
			if esc[i] != '"' {
				continue
			}
			bs := 0
			for j := i - 1; j >= 0 && esc[j] == '\\'; j-- {
				bs++
			}
			if bs%2 == 0 {
				t.Fatalf("EscapeLabelValue(%q) = %q has unescaped quote at %d", s, esc, i)
			}
		}
	})
}
