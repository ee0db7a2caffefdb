package dataset

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func sample(t *testing.T, rows int) *Dataset {
	t.Helper()
	d := New([]string{"a", "b", "c"}, []string{"app1", "app2"})
	for i := 0; i < rows; i++ {
		err := d.Append(
			[]float64{float64(i), float64(i % 3), float64(i * i)},
			map[string]float64{"app1": float64(10 * i), "app2": float64(i) + 0.5},
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestAppendAndAccess(t *testing.T) {
	d := sample(t, 5)
	if d.Len() != 5 || d.NumFeatures() != 3 {
		t.Fatalf("shape = %d×%d", d.Len(), d.NumFeatures())
	}
	y, err := d.Target("app1")
	if err != nil {
		t.Fatal(err)
	}
	if y[3] != 30 {
		t.Errorf("target = %v", y)
	}
	if _, err := d.Target("nope"); err == nil {
		t.Error("unknown target accepted")
	}
	if d.FeatureIndex("c") != 2 || d.FeatureIndex("zz") != -1 {
		t.Error("FeatureIndex wrong")
	}
}

func TestAppendErrors(t *testing.T) {
	d := New([]string{"a"}, []string{"app"})
	if err := d.Append([]float64{1, 2}, map[string]float64{"app": 0}); err == nil {
		t.Error("wrong-width row accepted")
	}
	if err := d.Append([]float64{1}, map[string]float64{}); err == nil {
		t.Error("missing target accepted")
	}
}

func TestAppendCopiesFeatures(t *testing.T) {
	d := New([]string{"a"}, []string{"app"})
	row := []float64{1}
	if err := d.Append(row, map[string]float64{"app": 2}); err != nil {
		t.Fatal(err)
	}
	row[0] = 99
	if d.X[0][0] != 1 {
		t.Error("Append aliased the caller's slice")
	}
}

func TestSplit(t *testing.T) {
	d := sample(t, 100)
	train, test := d.Split(1, 0.8)
	if train.Len() != 80 || test.Len() != 20 {
		t.Fatalf("split = %d/%d", train.Len(), test.Len())
	}
	// Deterministic.
	tr2, _ := d.Split(1, 0.8)
	for i := range train.X {
		if train.X[i][0] != tr2.X[i][0] {
			t.Fatal("split not deterministic")
		}
	}
	// Different seed shuffles differently.
	tr3, _ := d.Split(2, 0.8)
	same := 0
	for i := range train.X {
		if train.X[i][0] == tr3.X[i][0] {
			same++
		}
	}
	if same == train.Len() {
		t.Error("different seeds produced identical split")
	}
	// Partition: every row appears exactly once across train+test.
	seen := map[float64]int{}
	for _, row := range train.X {
		seen[row[0]]++
	}
	for _, row := range test.X {
		seen[row[0]]++
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("row %g appears %d times", v, n)
		}
	}
	// Targets stay aligned with features.
	for i, row := range test.X {
		if test.Y["app1"][i] != row[0]*10 {
			t.Fatalf("target misaligned after split at %d", i)
		}
	}
}

func TestSplitEdges(t *testing.T) {
	d := sample(t, 10)
	tr, te := d.Split(1, 0)
	if tr.Len() != 0 || te.Len() != 10 {
		t.Error("frac 0 wrong")
	}
	tr, te = d.Split(1, 1)
	if tr.Len() != 10 || te.Len() != 0 {
		t.Error("frac 1 wrong")
	}
	tr, te = d.Split(1, 2)
	if tr.Len() != 10 || te.Len() != 0 {
		t.Error("frac > 1 not clamped")
	}
}

func TestFilters(t *testing.T) {
	d := sample(t, 30)
	eq := d.FilterEqual(1, 2) // i%3 == 2
	if eq.Len() != 10 {
		t.Fatalf("FilterEqual = %d rows", eq.Len())
	}
	for i, row := range eq.X {
		if row[1] != 2 {
			t.Fatal("FilterEqual kept wrong row")
		}
		if eq.Y["app1"][i] != row[0]*10 {
			t.Fatal("FilterEqual misaligned targets")
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := sample(t, 25)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() || back.NumFeatures() != d.NumFeatures() {
		t.Fatalf("shape mismatch after round trip")
	}
	for i := range d.FeatureNames {
		if back.FeatureNames[i] != d.FeatureNames[i] {
			t.Fatal("feature names lost")
		}
	}
	for r := range d.X {
		for c := range d.X[r] {
			if back.X[r][c] != d.X[r][c] {
				t.Fatalf("X[%d][%d] changed", r, c)
			}
		}
		for _, a := range d.Apps {
			if back.Y[a][r] != d.Y[a][r] {
				t.Fatalf("Y[%s][%d] changed", a, r)
			}
		}
	}
}

func TestCSVRoundTripProperty(t *testing.T) {
	f := func(vals []float64) bool {
		d := New([]string{"x"}, []string{"app"})
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			if err := d.Append([]float64{v}, map[string]float64{"app": v * 2}); err != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if err := d.WriteCSV(&buf); err != nil {
			return false
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		if back.Len() != d.Len() {
			return false
		}
		for i := range d.X {
			if back.X[i][0] != d.X[i][0] || back.Y["app"][i] != d.Y["app"][i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"no targets":           "a,b\n1,2\n",
		"feature after target": "a,cycles:x,b\n1,2,3\n",
		"bad float":            "a,cycles:x\nfoo,2\n",
		"bad target float":     "a,cycles:x\n1,bar\n",
		"empty":                "",
	}
	for name, s := range cases {
		if _, err := ReadCSV(strings.NewReader(s)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	d := sample(t, 10)
	path := filepath.Join(t.TempDir(), "ds.csv")
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 10 {
		t.Errorf("loaded %d rows", back.Len())
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.csv")); err == nil {
		t.Error("missing file accepted")
	}
}
