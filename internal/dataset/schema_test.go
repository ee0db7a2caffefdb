package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestV1CSVLoads pins backwards compatibility: testdata/v1_dataset.csv is a
// dataset in the layout written before auxiliary (stall) columns existed,
// and must keep loading as schema v1 and round-tripping byte-identically.
func TestV1CSVLoads(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "v1_dataset.csv"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := ReadCSV(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if v := d.SchemaVersion(); v != 1 {
		t.Errorf("SchemaVersion() = %d, want 1", v)
	}
	if len(d.AuxNames) != 0 || d.Aux != nil {
		t.Errorf("v1 dataset has aux columns: %v", d.AuxNames)
	}
	if d.Len() != 3 || d.NumFeatures() != 3 || len(d.Apps) != 2 {
		t.Fatalf("shape = %d rows x %d features x %d apps", d.Len(), d.NumFeatures(), len(d.Apps))
	}
	y, err := d.Target("miniBUDE")
	if err != nil {
		t.Fatal(err)
	}
	if y[2] != 31900 {
		t.Errorf("Target(miniBUDE)[2] = %v, want 31900", y[2])
	}
	var out bytes.Buffer
	if err := d.WriteCSV(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), raw) {
		t.Errorf("v1 round trip not byte-identical:\ngot:  %q\nwant: %q", out.String(), raw)
	}
}

func TestV2CSVRoundTrip(t *testing.T) {
	aux := StallColumns([]string{"a", "b"}, []string{"busy", "mem-lat"})
	d := NewWithAux([]string{"f0", "f1"}, []string{"a", "b"}, aux)
	if v := d.SchemaVersion(); v != 2 {
		t.Fatalf("SchemaVersion() = %d, want 2", v)
	}
	err := d.AppendFull([]float64{1, 2},
		map[string]float64{"a": 10, "b": 20},
		map[string]float64{
			StallColumn("a", "busy"): 7, StallColumn("a", "mem-lat"): 3,
			StallColumn("b", "busy"): 15, StallColumn("b", "mem-lat"): 5,
		})
	if err != nil {
		t.Fatal(err)
	}
	// Append without aux values zero-pads the aux columns.
	if err := d.Append([]float64{3, 4}, map[string]float64{"a": 11, "b": 21}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion() != 2 || !reflect.DeepEqual(got.AuxNames, d.AuxNames) {
		t.Fatalf("reloaded schema v%d aux %v", got.SchemaVersion(), got.AuxNames)
	}
	if !reflect.DeepEqual(got.Aux, d.Aux) {
		t.Errorf("aux values: got %v, want %v", got.Aux, d.Aux)
	}
	col, err := got.StallTarget("a", "mem-lat")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(col, []float64{3, 0}) {
		t.Errorf("StallTarget(a, mem-lat) = %v, want [3 0]", col)
	}
}

func TestAppendFullErrors(t *testing.T) {
	d := NewWithAux([]string{"f"}, []string{"a"}, []string{StallColumn("a", "busy")})
	err := d.AppendFull([]float64{1}, map[string]float64{"a": 1}, map[string]float64{})
	if err == nil {
		t.Error("missing aux value accepted")
	}
	// A dataset without aux columns ignores the aux map entirely.
	v1 := New([]string{"f"}, []string{"a"})
	if err := v1.AppendFull([]float64{1}, map[string]float64{"a": 1}, map[string]float64{"x": 9}); err != nil {
		t.Errorf("AppendFull on v1 dataset: %v", err)
	}
}

// TestOpenJournalRefusesV1: a schema-v1 journal, written before the stall
// columns existed, belongs to another run than one that journals them; it
// is refused and left byte-unchanged, torn tail included.
func TestOpenJournalRefusesV1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.journal")
	feats := []string{"f0", "f1"}
	apps := []string{"a"}
	sw, err := CreateStreamAux(path, feats, apps, nil, "seed=1")
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Append(0, false, []float64{1, 2}, map[string]float64{"a": 10}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("1,0,3"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := OpenJournal(path, feats, apps, []string{StallColumn("a", "busy")}, "seed=1"); err == nil {
		t.Fatal("v1 journal opened by a run with stall columns")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Errorf("refused v1 journal changed (err %v)", err)
	}
}

// TestStreamV2RoundTrip journals aux values and gets them back from both a
// resume (Done set) and a compaction (Aux columns).
func TestStreamV2RoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.journal")
	feats := []string{"f0"}
	apps := []string{"a"}
	aux := []string{StallColumn("a", "busy"), StallColumn("a", "rob")}
	sw, err := CreateStreamAux(path, feats, apps, aux, "seed=2")
	if err != nil {
		t.Fatal(err)
	}
	err = sw.AppendFull(0, false, []float64{1}, map[string]float64{"a": 10},
		map[string]float64{aux[0]: 6, aux[1]: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	sw, resumed, err := OpenJournal(path, feats, apps, aux, "seed=2")
	if err != nil || !resumed || !sw.Done()[0] {
		t.Fatalf("resuming: resumed %t, err %v", resumed, err)
	}
	err = sw.AppendFull(1, false, []float64{2}, map[string]float64{"a": 20},
		map[string]float64{aux[0]: 13, aux[1]: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	d, _, err := CompactStream(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.SchemaVersion() != 2 {
		t.Fatalf("compacted schema v%d, want v2", d.SchemaVersion())
	}
	rob, err := d.StallTarget("a", "rob")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rob, []float64{4, 7}) {
		t.Errorf("StallTarget(a, rob) = %v, want [4 7]", rob)
	}
}
