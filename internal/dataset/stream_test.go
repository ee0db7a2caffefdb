package dataset

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

var (
	streamFeatures = []string{"a", "b"}
	streamApps     = []string{"app1", "app2"}
)

func appendRow(t *testing.T, s *StreamWriter, idx int, failed bool, base float64) {
	t.Helper()
	err := s.Append(idx, failed, []float64{base, base + 1},
		map[string]float64{"app1": base * 10, "app2": base * 20})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStreamCompactSortsAndDropsFailed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.csv")
	s, err := CreateStreamAux(path, streamFeatures, streamApps, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	// Completion order 2, 0, 3(failed), 1 — compaction must yield 0, 1, 2.
	appendRow(t, s, 2, false, 2)
	appendRow(t, s, 0, false, 0)
	appendRow(t, s, 3, true, 3)
	appendRow(t, s, 1, false, 1)
	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	d, failed, err := CompactStream(path)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 1 {
		t.Errorf("failed = %d, want 1", failed)
	}
	if d.Len() != 3 {
		t.Fatalf("rows = %d, want 3", d.Len())
	}
	for r := 0; r < 3; r++ {
		if d.X[r][0] != float64(r) {
			t.Errorf("row %d feature a = %g, want %d (index-sorted)", r, d.X[r][0], r)
		}
		if d.Y["app1"][r] != float64(r)*10 {
			t.Errorf("row %d app1 = %g", r, d.Y["app1"][r])
		}
	}
}

func TestStreamResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.csv")
	s, err := CreateStreamAux(path, streamFeatures, streamApps, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	appendRow(t, s, 0, false, 0)
	appendRow(t, s, 4, false, 4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, resumed, err := OpenJournal(path, streamFeatures, streamApps, nil, "")
	if err != nil || !resumed {
		t.Fatalf("resumed %t, err %v", resumed, err)
	}
	done := r.Done()
	if len(done) != 2 || !done[0] || !done[4] {
		t.Fatalf("done = %v, want {0, 4}", done)
	}
	// A duplicate append of a done index is a no-op when identical and
	// ErrConflict when its values differ.
	appendRow(t, r, 4, false, 4)
	if err := r.Append(4, false, []float64{99, 100}, nil); !errors.Is(err, ErrConflict) {
		t.Errorf("conflicting duplicate: err = %v, want ErrConflict", err)
	}
	appendRow(t, r, 2, false, 2)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	d, failed, err := CompactStream(path)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 || d.Len() != 3 {
		t.Fatalf("rows = %d failed = %d, want 3/0", d.Len(), failed)
	}
	if d.X[2][0] != 4 {
		t.Errorf("index 4 row overwritten by duplicate: %g", d.X[2][0])
	}
}

func TestStreamResumeTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.csv")
	s, err := CreateStreamAux(path, streamFeatures, streamApps, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	appendRow(t, s, 0, false, 0)
	appendRow(t, s, 1, false, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: append half a record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("2,0,9"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	torn, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	r, _, err := OpenJournal(path, streamFeatures, streamApps, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if done := r.Done(); len(done) != 2 {
		t.Fatalf("done = %v, want exactly indices 0 and 1", done)
	}
	// Reopening alone leaves the file as it was; the torn record is cut
	// at the first append.
	if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b, torn) {
		t.Fatalf("reopening changed the journal (err %v)", err)
	}
	// Index 2 can be re-journaled cleanly after truncation.
	appendRow(t, r, 2, false, 2)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	d, _, err := CompactStream(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 || d.X[2][0] != 2 {
		t.Fatalf("post-truncation dataset wrong: len %d", d.Len())
	}
}

// TestStreamResumeUnterminatedRecord: a crash between a record's last
// field and its newline leaves a whole record; resuming keeps it, and the
// next append starts on a line of its own instead of joining it.
func TestStreamResumeUnterminatedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.csv")
	s, err := CreateStreamAux(path, streamFeatures, streamApps, nil, "seed=1")
	if err != nil {
		t.Fatal(err)
	}
	appendRow(t, s, 0, false, 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.TrimSuffix(raw, []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	r, _, err := OpenJournal(path, streamFeatures, streamApps, nil, "seed=1")
	if err != nil {
		t.Fatal(err)
	}
	if done := r.Done(); len(done) != 1 || !done[0] {
		t.Fatalf("done = %v, want {0}", done)
	}
	appendRow(t, r, 1, false, 1)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	d, _, err := CompactStream(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 || d.X[1][0] != 1 {
		t.Fatalf("compacted %d rows, want rows 0 and 1", d.Len())
	}
}

func TestStreamResumeHeaderMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.csv")
	s, err := CreateStreamAux(path, streamFeatures, streamApps, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, _, err := OpenJournal(path, streamFeatures, []string{"other"}, nil, ""); err == nil {
		t.Error("mismatched apps accepted")
	}
	if _, _, err := OpenJournal(path, []string{"a"}, streamApps, nil, ""); err == nil {
		t.Error("mismatched features accepted")
	}
	// A missing journal is created, not resumed.
	fresh := filepath.Join(t.TempDir(), "fresh.csv")
	sw, resumed, err := OpenJournal(fresh, streamFeatures, streamApps, nil, "")
	if err != nil || resumed || sw.Len() != 0 {
		t.Fatalf("missing journal: resumed %t, err %v", resumed, err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("missing journal not created: %v", err)
	}
}

func TestStreamMeta(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.csv")
	s, err := CreateStreamAux(path, streamFeatures, streamApps, nil, "seed=7 samples=4")
	if err != nil {
		t.Fatal(err)
	}
	appendRow(t, s, 0, false, 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Same metadata resumes; different or missing metadata does not.
	r, _, err := OpenJournal(path, streamFeatures, streamApps, nil, "seed=7 samples=4")
	if err != nil {
		t.Fatal(err)
	}
	appendRow(t, r, 1, false, 1)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path, streamFeatures, streamApps, nil, "seed=8 samples=4"); err == nil {
		t.Error("journal resumed under a different seed")
	}
	if _, _, err := OpenJournal(path, streamFeatures, streamApps, nil, ""); err == nil {
		t.Error("metadata journal resumed by a run without metadata")
	}

	// The metadata column carries no row data: compaction ignores it.
	d, failed, err := CompactStream(path)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 || d.Len() != 2 || d.NumFeatures() != len(streamFeatures) {
		t.Fatalf("compacted %d rows x %d features, %d failed", d.Len(), d.NumFeatures(), failed)
	}
}

func TestStreamAppendErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.csv")
	s, err := CreateStreamAux(path, streamFeatures, streamApps, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(0, false, []float64{1}, nil); err == nil {
		t.Error("short feature vector accepted")
	}
	// Failed rows may omit targets entirely.
	if err := s.Append(1, true, []float64{1, 2}, nil); err != nil {
		t.Errorf("failed row with nil targets rejected: %v", err)
	}
	s.Close()
	if err := s.Append(2, false, []float64{1, 2}, map[string]float64{"app1": 1, "app2": 2}); err == nil {
		t.Error("append after close accepted")
	}
	if _, _, err := CompactStream(filepath.Join(t.TempDir(), "nope.csv")); err == nil {
		t.Error("compacting missing journal succeeded")
	}
}

func TestCompactRejectsPlainCSV(t *testing.T) {
	// A dataset CSV (no journal bookkeeping columns) is not a journal.
	path := filepath.Join(t.TempDir(), "ds.csv")
	d := New(streamFeatures, streamApps)
	if err := d.Append([]float64{1, 2}, map[string]float64{"app1": 1, "app2": 2}); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, _, err := CompactStream(path); err == nil {
		t.Error("plain dataset CSV accepted as journal")
	}
}
