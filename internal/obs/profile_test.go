package obs

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartProfile(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pb.gz"), filepath.Join(dir, "mem.pb.gz")
	stop, err := StartProfile(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s: not written (%v)", filepath.Base(p), err)
		}
	}

	// Empty paths must not create anything, even relative to the working
	// directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	empty := t.TempDir()
	if err := os.Chdir(empty); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
	stop, err = StartProfile("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(empty); len(ents) != 0 {
		t.Errorf("empty paths wrote %d files", len(ents))
	}

	bad := filepath.Join(dir, "missing", "p.pb.gz")
	if _, err := StartProfile(bad, ""); err == nil {
		t.Error("unwritable CPU profile path accepted")
	}
	stop, err = StartProfile("", bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Error("unwritable heap profile path accepted")
	}
}
