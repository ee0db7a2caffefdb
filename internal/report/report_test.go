package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := Table{
		Title:   "demo",
		Columns: []string{"Name", "Value"},
	}
	tbl.AddRow("short", "1")
	tbl.AddRow("a-much-longer-name", "123456")
	s := tbl.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("rendered %d lines:\n%s", len(lines), s)
	}
	if lines[0] != "demo" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "Name") {
		t.Errorf("header = %q", lines[1])
	}
	// Columns align: "Value" starts at the same offset in every line.
	off := strings.Index(lines[1], "Value")
	if off < 0 {
		t.Fatal("no Value column")
	}
	if lines[3][off:off+1] != "1" {
		t.Errorf("row 1 misaligned: %q", lines[3])
	}
	if !strings.Contains(lines[4], "123456") {
		t.Errorf("row 2 = %q", lines[4])
	}
	// Separator row uses dashes.
	if !strings.HasPrefix(lines[2], "----") {
		t.Errorf("separator = %q", lines[2])
	}
}

func TestTableNoTitle(t *testing.T) {
	tbl := Table{Columns: []string{"A"}}
	tbl.AddRow("x")
	if strings.HasPrefix(tbl.String(), "\n") {
		t.Error("empty title produced leading newline")
	}
}

func TestFormatters(t *testing.T) {
	if F(3.14159, 2) != "3.14" {
		t.Errorf("F = %q", F(3.14159, 2))
	}
	if I(42.0) != "42" {
		t.Errorf("I = %q", I(42.0))
	}
	cases := map[float64]string{
		64:       "64B",
		4096:     "4KiB",
		1 << 20:  "1MiB",
		16 << 20: "16MiB",
		3 << 10:  "3KiB",
		1000:     "1000B", // not a KiB multiple
	}
	for v, want := range cases {
		if got := Bytes(v); got != want {
			t.Errorf("Bytes(%g) = %q, want %q", v, got, want)
		}
	}
}
