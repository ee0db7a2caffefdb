package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"strings"
)

// SanitizeMetricName maps an arbitrary string onto the Prometheus metric
// name alphabet [a-zA-Z_:][a-zA-Z0-9_:]*, replacing every invalid byte with
// '_'. An empty input becomes "_". The function is idempotent: sanitising a
// sanitised name returns it unchanged.
func SanitizeMetricName(s string) string {
	if s == "" {
		return "_"
	}
	var b []byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			if b == nil {
				b = []byte(s)
			}
			b[i] = '_'
		}
	}
	if b == nil {
		return s
	}
	return string(b)
}

// SanitizeLabelName maps an arbitrary string onto the Prometheus label name
// alphabet [a-zA-Z_][a-zA-Z0-9_]* (no colons), replacing invalid bytes with
// '_'. Empty input becomes "_"; idempotent like SanitizeMetricName.
func SanitizeLabelName(s string) string {
	if s == "" {
		return "_"
	}
	var b []byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			if b == nil {
				b = []byte(s)
			}
			b[i] = '_'
		}
	}
	if b == nil {
		return s
	}
	return string(b)
}

// EscapeLabelValue escapes a label value for the text exposition format:
// backslash, double quote and newline become \\, \" and \n, so any string
// is representable.
func EscapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string (backslash and newline only, per the
// exposition format).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a sample value the way Prometheus expects: integral
// floats without an exponent, +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatInt(int64(v), 10)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// writeLabels renders a label set (plus an optional trailing le pair) in
// sorted-key order.
func writeLabels(w *bufio.Writer, labels []Label, le string) {
	if len(labels) == 0 && le == "" {
		return
	}
	w.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(l.Key)
		w.WriteString(`="`)
		w.WriteString(EscapeLabelValue(l.Value))
		w.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			w.WriteByte(',')
		}
		w.WriteString(`le="`)
		w.WriteString(le)
		w.WriteByte('"')
	}
	w.WriteByte('}')
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4). Output is deterministic: families in name order,
// series in label-identity order, histogram buckets ascending with empty
// leading/trailing runs trimmed (the +Inf bucket is always present).
func WritePrometheus(w io.Writer, snap Snapshot) error {
	bw := bufio.NewWriter(w)
	for _, f := range snap.Families {
		if f.Help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(f.Name)
			bw.WriteByte(' ')
			bw.WriteString(escapeHelp(f.Help))
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(f.Name)
		bw.WriteByte(' ')
		bw.WriteString(f.Kind)
		bw.WriteByte('\n')
		for _, s := range f.Series {
			if f.Kind != KindHistogram.String() {
				bw.WriteString(f.Name)
				writeLabels(bw, s.Labels, "")
				bw.WriteByte(' ')
				bw.WriteString(formatValue(s.Value))
				bw.WriteByte('\n')
				continue
			}
			// Histogram: cumulative buckets up to the last non-empty one,
			// then +Inf, _sum and _count. A scaled family (TimeHistogram)
			// divides its `le` bounds and sum by the scale at this point —
			// the stored int64 observations are untouched.
			scale := f.Scale
			if scale <= 0 {
				scale = 1
			}
			last := 0
			for b, n := range s.Buckets {
				if n != 0 {
					last = b
				}
			}
			var cum int64
			for b := 0; b <= last && b < NumHistBuckets-1; b++ {
				cum += s.Buckets[b]
				bw.WriteString(f.Name)
				bw.WriteString("_bucket")
				writeLabels(bw, s.Labels, formatValue(BucketUpperBound(b)/scale))
				bw.WriteByte(' ')
				bw.WriteString(strconv.FormatInt(cum, 10))
				bw.WriteByte('\n')
			}
			bw.WriteString(f.Name)
			bw.WriteString("_bucket")
			writeLabels(bw, s.Labels, "+Inf")
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatInt(s.Count, 10))
			bw.WriteByte('\n')
			bw.WriteString(f.Name)
			bw.WriteString("_sum")
			writeLabels(bw, s.Labels, "")
			bw.WriteByte(' ')
			if scale == 1 {
				bw.WriteString(strconv.FormatInt(s.Sum, 10))
			} else {
				bw.WriteString(formatValue(float64(s.Sum) / scale))
			}
			bw.WriteByte('\n')
			bw.WriteString(f.Name)
			bw.WriteString("_count")
			writeLabels(bw, s.Labels, "")
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatInt(s.Count, 10))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// WriteJSON renders the snapshot as indented JSON — the /debug/vars-style
// machine-readable twin of the Prometheus exposition.
func WriteJSON(w io.Writer, snap Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}
