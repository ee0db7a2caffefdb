package dataset

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// journalRow is one record for the test journal writer.
type journalRow struct {
	index    int
	failed   bool
	features []float64
	target   float64
	aux      float64
}

const conflictTestMeta = "seed=7 samples=6 paper=false"

func (r journalRow) stream() StreamRow {
	sr := StreamRow{Index: r.index, Failed: r.failed, Features: r.features}
	if !r.failed {
		sr.Targets = map[string]float64{"x": r.target}
		sr.Aux = map[string]float64{"s": r.aux}
	}
	return sr
}

func row(i int) journalRow {
	return journalRow{index: i, features: []float64{float64(i), float64(i) + 0.5}, target: float64(100 + i), aux: float64(i) / 4}
}

// createJournal starts a journal with the fixed two-feature schema the
// conflict tests share.
func createJournal(t *testing.T, path string) *StreamWriter {
	t.Helper()
	sw, err := CreateStreamAux(path, []string{"a", "b"}, []string{"x"}, []string{"s"}, conflictTestMeta)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func appendRows(sw *StreamWriter, rows ...journalRow) error {
	batch := make([]StreamRow, len(rows))
	for i, r := range rows {
		batch[i] = r.stream()
	}
	return sw.AppendRows(batch)
}

func compactedCSV(t *testing.T, path string) ([]byte, int) {
	t.Helper()
	d, failed, err := CompactStream(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), failed
}

// TestStreamAppendConflict: a value-identical duplicate (a chunk re-run
// resimulating deterministically) is a no-op; a disagreeing duplicate is
// ErrConflict, never a silent drop, and fails its whole batch — against
// rows journaled earlier in this process, rows recovered by a resume, or
// rows earlier in the same batch.
func TestStreamAppendConflict(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.journal")
	sw := createJournal(t, path)
	if err := appendRows(sw, row(0), row(1)); err != nil {
		t.Fatal(err)
	}
	if err := appendRows(sw, row(1), row(2)); err != nil {
		t.Fatalf("identical duplicate rejected: %v", err)
	}
	conflicting := row(1)
	conflicting.target++
	if err := appendRows(sw, row(3), conflicting); !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting duplicate: err = %v, want ErrConflict", err)
	}
	if err := appendRows(sw, row(4), row(4)); err != nil {
		t.Fatalf("identical in-batch duplicate rejected: %v", err)
	}
	bad := row(5)
	bad.failed = true
	if err := appendRows(sw, row(5), bad); !errors.Is(err, ErrConflict) {
		t.Fatalf("in-batch conflict: err = %v, want ErrConflict", err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	// A resumed journal checks against the rows on disk.
	r, err := ResumeStreamAux(path, []string{"a", "b"}, []string{"x"}, []string{"s"}, conflictTestMeta)
	if err != nil {
		t.Fatal(err)
	}
	if err := appendRows(r, row(2)); err != nil {
		t.Fatalf("identical duplicate of a resumed row rejected: %v", err)
	}
	if err := appendRows(r, conflicting); !errors.Is(err, ErrConflict) {
		t.Fatalf("conflict with a resumed row: err = %v, want ErrConflict", err)
	}
	if r.Len() != 4 {
		t.Errorf("Len = %d, want 4: rejected batches journaled rows", r.Len())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	want := createJournal(t, filepath.Join(dir, "want.journal"))
	if err := appendRows(want, row(0), row(1), row(2), row(4)); err != nil {
		t.Fatal(err)
	}
	if err := want.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := compactedCSV(t, path)
	if wantCSV, _ := compactedCSV(t, filepath.Join(dir, "want.journal")); !bytes.Equal(got, wantCSV) {
		t.Errorf("journal after rejected batches:\n%s\nwant\n%s", got, wantCSV)
	}
}

// failingWriter accepts limit bytes, then fails every write.
type failingWriter struct {
	w     *os.File
	limit int
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if len(p) <= f.limit {
		f.limit -= len(p)
		return f.w.Write(p)
	}
	n, _ := f.w.Write(p[:f.limit])
	f.limit = 0
	return n, errors.New("injected: no space left on device")
}

// TestStreamAppendWriteError: a write that fails part-way leaves no partial
// record behind — the batch is cut before the next append — and none of
// its indices count as journaled.
func TestStreamAppendWriteError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	sw := createJournal(t, path)
	if err := appendRows(sw, row(0)); err != nil {
		t.Fatal(err)
	}
	sw.out.w = &failingWriter{w: sw.f, limit: 20}
	if err := appendRows(sw, row(1), row(2)); err == nil {
		t.Fatal("failed write reported success")
	}
	if sw.Len() != 1 {
		t.Fatalf("Len = %d after a failed write, want 1", sw.Len())
	}
	sw.out.w = sw.f
	if err := appendRows(sw, row(2), row(1)); err != nil {
		t.Fatalf("append after a failed write: %v", err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	_, rows, err := ReadStreamRows(path)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || bytes.Count(raw, []byte("\n")) != 4 {
		t.Errorf("journal holds %d rows in %d lines, want 3 rows after the header:\n%s",
			len(rows), bytes.Count(raw, []byte("\n")), raw)
	}
}

// FuzzJournalMerge feeds adversarial journal pairs — partial, duplicated,
// overlapping, truncated, or outright garbage — through the path a fleet
// collection takes: both journals' rows appended into one journal. The
// checks are the invariants the fabric's correctness rests on: appending
// never panics, a conflict is found in both orders or in neither, and an
// accepted pair compacts to one deterministic dataset (identical CSV bytes
// and failed counts both ways).
func FuzzJournalMerge(f *testing.F) {
	header := "_index,_failed,a,b,cycles:x,s,_meta:" + conflictTestMeta + "\n"
	f.Add(header+"0,0,0,0.5,100,0\n1,0,1,1.5,101,0.25\n", header+"2,0,2,2.5,102,0.5\n")
	// Identical duplicate vs conflicting duplicate.
	f.Add(header+"0,0,0,0.5,100,0\n", header+"0,0,0,0.5,100,0\n")
	f.Add(header+"0,0,0,0.5,100,0\n", header+"0,0,0,0.5,999,0\n")
	// Failed row, torn tail, empty journal, garbage.
	f.Add(header+"3,1,3,3.5,0,0\n", header+"4,0,4,4.5,104,1\n5,0,5,5.")
	f.Add("", "not,a,journal\n1,2\n")
	f.Add(header, "_index,_failed,a,b,cycles:x,s,_meta:seed=99 samples=6 paper=false\n0,0,0,0.5,100,0\n")
	f.Fuzz(func(t *testing.T, a, b string) {
		dir := t.TempDir()
		var schema StreamSchema
		var sets [2][]StreamRow
		for i, data := range []string{a, b} {
			p := filepath.Join(dir, []string{"a", "b"}[i]+".journal")
			if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
			s, rows, err := ReadStreamRows(p)
			if err != nil {
				return
			}
			// Journals of different runs never share a journal: the
			// header stamp check refuses them on resume.
			if i == 1 && !reflect.DeepEqual(s, schema) {
				return
			}
			schema, sets[i] = s, rows
		}
		merge := func(name string, first, second []StreamRow) (csv []byte, failed int, err error) {
			p := filepath.Join(dir, name)
			sw, err := CreateStreamAux(p, schema.Features, schema.Apps, schema.AuxNames, schema.Meta)
			if err != nil {
				return nil, 0, err
			}
			defer sw.Close()
			for _, rows := range [][]StreamRow{first, second} {
				if err := sw.AppendRows(rows); err != nil {
					return nil, 0, err
				}
			}
			if err := sw.Close(); err != nil {
				return nil, 0, err
			}
			d, failed, err := CompactStream(p)
			if err != nil {
				return nil, 0, err
			}
			var buf bytes.Buffer
			if err := d.WriteCSV(&buf); err != nil {
				return nil, 0, err
			}
			return buf.Bytes(), failed, nil
		}
		ab, failedAB, errAB := merge("ab.journal", sets[0], sets[1])
		ba, failedBA, errBA := merge("ba.journal", sets[1], sets[0])
		if errors.Is(errAB, ErrConflict) != errors.Is(errBA, ErrConflict) || (errAB == nil) != (errBA == nil) {
			t.Fatalf("order-dependent acceptance: a,b err %v; b,a err %v", errAB, errBA)
		}
		if errAB != nil {
			return
		}
		if failedAB != failedBA {
			t.Fatalf("order-dependent failed count: %d vs %d", failedAB, failedBA)
		}
		if !bytes.Equal(ab, ba) {
			t.Fatalf("order-dependent merge:\n%s\nvs\n%s", ab, ba)
		}
	})
}
