// Package atomicfile writes final artifacts so that a reader never sees a
// partial one: the bytes go to a temporary file in the destination's
// directory, which is renamed over the destination only once they are all
// written. The file is not fsynced, so the guarantee covers the death of
// the writing process, not a power loss.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write creates or replaces path with what write produces. On any error
// the temporary file is removed and an existing file at path is left as it
// was.
func Write(path string, write func(io.Writer) error) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	// CreateTemp makes the file 0600; a final artifact gets os.Create's mode.
	if err := f.Chmod(0o644); err != nil {
		return err
	}
	if err := write(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}
