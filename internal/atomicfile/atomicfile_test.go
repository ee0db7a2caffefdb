package atomicfile

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// A failed Write leaves the file already at its path byte-unchanged and no
// temporary file beside it, even when the writer got part of the way.
func TestWriteFailureKeepsEarlierFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.txt")
	before := []byte("earlier artifact\n")
	if err := Write(path, func(w io.Writer) error {
		_, err := w.Write(before)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	errWrite := errors.New("disk full")
	err := Write(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("half")); err != nil {
			return err
		}
		return errWrite
	})
	if !errors.Is(err, errWrite) {
		t.Fatalf("failed write returned %v, want %v", err, errWrite)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Errorf("failed write changed the earlier file: %q (err %v)", after, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		for _, e := range entries {
			t.Errorf("directory holds %s", e.Name())
		}
	}
}
