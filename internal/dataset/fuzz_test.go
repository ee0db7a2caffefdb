package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDatasetCSV feeds arbitrary bytes to the CSV decoder. Anything ReadCSV
// accepts must survive a write/re-read cycle with identical shape and a
// stable second serialization — the invariant SaveFile/LoadFile rely on.
func FuzzDatasetCSV(f *testing.F) {
	f.Add([]byte("a,b,cycles:app\n1,2,3\n4,5,6\n"))
	f.Add([]byte("a,cycles:x,cycles:y,stall:x:Frontend\n1,2,3,4\n"))
	f.Add([]byte("a,b\n1,2\n"))   // no target columns: must be rejected
	f.Add([]byte("cycles:app\n")) // no feature columns
	f.Add([]byte("a,cycles:app\n1\n"))
	f.Add([]byte("a,cycles:app\nx,2\n"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := d.WriteCSV(&buf); err != nil {
			t.Fatalf("writing accepted dataset: %v", err)
		}
		d2, err := ReadCSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading own output: %v", err)
		}
		if d2.Len() != d.Len() || d2.NumFeatures() != d.NumFeatures() || len(d2.Apps) != len(d.Apps) {
			t.Fatalf("round trip changed shape: %dx%d/%d apps -> %dx%d/%d apps",
				d.Len(), d.NumFeatures(), len(d.Apps), d2.Len(), d2.NumFeatures(), len(d2.Apps))
		}
		var buf2 bytes.Buffer
		if err := d2.WriteCSV(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("second serialization differs:\n%s\n%s", buf.Bytes(), buf2.Bytes())
		}
	})
}

// fuzzJournal writes data to a fresh file and returns its path.
func fuzzJournal(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.csv")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// FuzzJournalHeader feeds arbitrary journal files to the resume and compact
// paths, which must tolerate any torn, truncated or hostile content without
// panicking: resume cuts back to the last clean record boundary and keeps
// appending, and whatever a resumed journal holds must compact.
func FuzzJournalHeader(f *testing.F) {
	names := []string{"a", "b"}
	apps := []string{"app"}
	const meta = "seed=1"

	// Seed with a real journal (and torn/corrupted variants of it) so the
	// fuzzer starts from the actual header layout.
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.csv")
	w, err := CreateStreamAux(seedPath, names, apps, nil, meta)
	if err != nil {
		f.Fatal(err)
	}
	if err := w.Append(0, false, []float64{1, 2}, map[string]float64{"app": 3}); err != nil {
		f.Fatal(err)
	}
	if err := w.Append(1, true, []float64{4, 5}, nil); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3])               // torn tail record
	f.Add(append(seed, []byte("x,y\n")...)) // corrupt extra record
	f.Add([]byte("_index,_failed,a,b,cycles:app,_meta:seed=2\n"))
	f.Add([]byte("_index,_failed\n"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := fuzzJournal(t, data)
		s, _, err := OpenJournal(path, names, apps, nil, meta)
		if err == nil {
			// A resumable journal must accept further rows and then compact.
			next := 0
			for done := s.Done(); done[next]; next++ {
			}
			if err := s.Append(next, false, []float64{7, 8}, map[string]float64{"app": 9}); err != nil {
				t.Fatalf("appending to resumed journal: %v", err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := CompactStream(path); err != nil {
				t.Fatalf("compacting resumed journal: %v", err)
			}
		}
		// Compaction of the raw fuzzed bytes may fail, but must not panic.
		raw := fuzzJournal(t, data)
		_, _, _ = CompactStream(raw)
	})
}
