package obs

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
)

// Journal is a line-oriented structured run log: one JSON record per line
// (JSONL), each line flushed so the file is always tail-able during a live
// sweep. WriteRecord encodes the record structs of runlog.go; WriteLine
// appends a line the caller encoded itself (the engine's per-config
// record). The journal guarantees atomic, ordered, newline-terminated
// appends and running line/byte statistics.
type Journal struct {
	mu    sync.Mutex
	f     *os.File
	bw    *bufio.Writer
	lines int64
	bytes int64
}

// RunlogPath resolves a -runlog flag against the dataset path out: "" is
// out + ".runlog.jsonl", "none" or "off" disables the runlog (returns ""),
// and anything else is the path itself.
func RunlogPath(flag, out string) string {
	switch flag {
	case "":
		return out + ".runlog.jsonl"
	case "none", "off":
		return ""
	}
	return flag
}

// CreateJournal creates (truncating) a journal file at path.
func CreateJournal(path string) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &Journal{f: f, bw: bufio.NewWriterSize(f, 1<<16)}, nil
}

// WriteLine appends one record (without trailing newline) and flushes.
// Safe for concurrent use; nil-safe no-op.
func (j *Journal) WriteLine(rec []byte) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.bw.Write(rec); err != nil {
		return err
	}
	if err := j.bw.WriteByte('\n'); err != nil {
		return err
	}
	j.lines++
	j.bytes += int64(len(rec)) + 1
	return j.bw.Flush()
}

// WriteRecord appends rec, one of the runlog record structs, as one JSON
// line. Nil-safe no-op.
func (j *Journal) WriteRecord(rec any) error {
	if j == nil {
		return nil
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return j.WriteLine(b)
}

// Stats returns the lines and bytes written so far.
func (j *Journal) Stats() (lines, bytes int64) {
	if j == nil {
		return 0, 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lines, j.bytes
}

// Close flushes and closes the underlying file. Nil-safe.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.bw.Flush(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
