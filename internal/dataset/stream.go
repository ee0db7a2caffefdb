package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Streaming collection support. A StreamWriter journals completed rows to
// disk as they finish, so an interrupted collection run keeps everything it
// already simulated: each record carries the configuration's global index,
// a failed flag, the feature vector and the per-app targets, in completion
// order. CompactStream turns a journal into a clean Dataset sorted by index
// — because every row is keyed by its global index and configurations are
// derived independently per index, the compacted output is byte-identical
// regardless of worker count, which fleet worker simulated which row, or how
// many times the run was interrupted and resumed.

// Journal bookkeeping columns: index and failed ahead of the feature
// columns, and an optional metadata column at the end whose header embeds a
// caller-supplied run description (e.g. "seed=1 samples=2000"). OpenJournal
// refuses a journal whose metadata differs from the opening run's, which
// catches a rerun with a different seed before mixed-provenance rows reach
// a dataset.
const (
	journalIndexCol   = "_index"
	journalFailedCol  = "_failed"
	journalMetaPrefix = "_meta:"
)

// ErrConflict rejects an append whose row disagrees with the row already
// journaled for its index. Every configuration is simulated
// deterministically, so a true duplicate is value-identical; a conflicting
// one means two runs computed different rows for one configuration, and it
// must surface rather than be dropped.
var ErrConflict = errors.New("dataset: conflicting rows for one index")

// StreamWriter appends row records to an on-disk journal. All methods are
// safe for concurrent use.
type StreamWriter struct {
	mu           sync.Mutex
	f            *os.File
	out          countingWriter
	w            *csv.Writer
	featureNames []string
	apps         []string
	auxNames     []string
	meta         string
	// done maps each journaled index to the digest of its record, so a
	// duplicate append can be told apart: identical is a no-op, different
	// is ErrConflict.
	done map[int]uint64
	// size is the length of the journal's intact prefix. When torn, the
	// bytes past it are a partial record — left by a crash or by a write
	// that failed — and are cut before the next append. When unterminated,
	// the prefix ends in a whole record whose newline a crash cut off, and
	// the next append writes that newline first.
	size         int64
	torn         bool
	unterminated bool
	closed       bool
}

// countingWriter counts the bytes that reach the journal file.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// CreateStreamAux starts a fresh journal at path (truncating any existing
// file) with the given feature, target and auxiliary columns; nil auxNames
// writes the schema-v1 layout. A non-empty meta string is recorded in the
// header and must match on OpenJournal.
func CreateStreamAux(path string, featureNames, apps, auxNames []string, meta string) (*StreamWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s := &StreamWriter{
		f:            f,
		out:          countingWriter{w: f},
		featureNames: append([]string(nil), featureNames...),
		apps:         append([]string(nil), apps...),
		auxNames:     append([]string(nil), auxNames...),
		meta:         meta,
		done:         make(map[int]uint64),
	}
	s.w = csv.NewWriter(&s.out)
	if err := s.writeLocked([][]string{s.header()}); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// OpenJournal is the one open policy for a collection journal: it creates
// the journal at path when none exists, and resumes it — resumed is true —
// when its columns and meta stamp are this run's. A journal of another run
// (a different stamp or column layout, a schema-v1 journal included) is
// refused and left byte-unchanged. No flag is needed to resume: by
// determinism, a journal whose stamp matches holds exactly this run's rows.
func OpenJournal(path string, featureNames, apps, auxNames []string, meta string) (sw *StreamWriter, resumed bool, err error) {
	sw, err = resumeStream(path, featureNames, apps, auxNames, meta)
	if errors.Is(err, os.ErrNotExist) {
		sw, err = CreateStreamAux(path, featureNames, apps, auxNames, meta)
		return sw, false, err
	}
	return sw, err == nil, err
}

// resumeStream reopens an existing journal for appending. It verifies the
// header matches the expected columns and metadata and reads every intact
// record to rebuild the set of completed indices. A torn final record (a
// crash mid-write) is cut at the first append, so appending resumes from a
// clean boundary; reopening alone never changes the file.
func resumeStream(path string, featureNames, apps, auxNames []string, meta string) (*StreamWriter, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	s := &StreamWriter{
		featureNames: append([]string(nil), featureNames...),
		apps:         append([]string(nil), apps...),
		auxNames:     append([]string(nil), auxNames...),
		meta:         meta,
		done:         make(map[int]uint64),
	}
	cr := csv.NewReader(f)
	cr.FieldsPerRecord = -1 // validate the header ourselves first
	header, err := cr.Read()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("dataset: resuming %s: reading header: %w", path, err)
	}
	want := s.header()
	if len(header) != len(want) {
		f.Close()
		return nil, fmt.Errorf("dataset: %s belongs to another run: it has %d columns, this run journals %d", path, len(header), len(want))
	}
	for i := range want {
		if header[i] == want[i] {
			continue
		}
		f.Close()
		if strings.HasPrefix(header[i], journalMetaPrefix) && strings.HasPrefix(want[i], journalMetaPrefix) {
			return nil, fmt.Errorf("dataset: %s belongs to another run: it was written with %q, this run is %q",
				path, strings.TrimPrefix(header[i], journalMetaPrefix), strings.TrimPrefix(want[i], journalMetaPrefix))
		}
		return nil, fmt.Errorf("dataset: %s belongs to another run: its column %d is %q, this run's is %q", path, i, header[i], want[i])
	}
	cr.FieldsPerRecord = len(want)
	goodOffset := cr.InputOffset()
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Torn or corrupt tail record: keep everything before it.
			break
		}
		idx, err := strconv.Atoi(rec[0])
		if err != nil {
			break
		}
		if _, dup := s.done[idx]; !dup {
			s.done[idx] = recordDigest(rec[1:])
		}
		goodOffset = cr.InputOffset()
	}
	end, err := f.Seek(0, io.SeekEnd)
	var last [1]byte
	if err == nil {
		_, err = f.ReadAt(last[:], goodOffset-1)
	}
	if err == nil {
		_, err = f.Seek(goodOffset, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	s.f = f
	s.out = countingWriter{w: f, n: goodOffset}
	s.w = csv.NewWriter(&s.out)
	s.size, s.torn, s.unterminated = goodOffset, end != goodOffset, last[0] != '\n'
	return s, nil
}

func (s *StreamWriter) header() []string {
	h := []string{journalIndexCol, journalFailedCol}
	h = append(h, s.featureNames...)
	for _, a := range s.apps {
		h = append(h, targetPrefix+a)
	}
	h = append(h, s.auxNames...)
	if s.meta != "" {
		h = append(h, journalMetaPrefix+s.meta)
	}
	return h
}

// Append journals one completed row and flushes it to the file, so a killed
// process loses at most the record being written. A failed row records the
// features with zero targets and failed=1; failed rows still mark their
// index done so a resumed run does not re-simulate them. A nil targets map
// is allowed for failed rows. On a journal with aux columns the row's aux
// values are zero — use AppendFull to supply them.
func (s *StreamWriter) Append(index int, failed bool, features []float64, targets map[string]float64) error {
	return s.AppendFull(index, failed, features, targets, nil)
}

// AppendFull is Append with the row's auxiliary values; missing (or all,
// via nil map) aux values journal as zero, mirroring failed rows' targets.
func (s *StreamWriter) AppendFull(index int, failed bool, features []float64, targets, aux map[string]float64) error {
	return s.AppendRows([]StreamRow{{Index: index, Failed: failed, Features: features, Targets: targets, Aux: aux}})
}

// AppendRows journals rows as one unit and flushes them to the file. A row
// whose index is already journaled with identical values is skipped; one
// with different values fails the whole batch with ErrConflict. Either
// every new row is journaled or none is: a failed write is cut back out of
// the file before the next append.
func (s *StreamWriter) AppendRows(rows []StreamRow) error {
	recs := make([][]string, len(rows))
	for i, r := range rows {
		if len(r.Features) != len(s.featureNames) {
			return fmt.Errorf("dataset: journal row has %d features, want %d", len(r.Features), len(s.featureNames))
		}
		recs[i] = s.record(r)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("dataset: append to closed journal")
	}
	fresh := make(map[int]uint64, len(rows))
	var write [][]string
	for i, r := range rows {
		sum := recordDigest(recs[i][1:])
		prev, dup := s.done[r.Index]
		if !dup {
			prev, dup = fresh[r.Index]
		}
		if dup {
			if prev != sum {
				return fmt.Errorf("%w: index %d", ErrConflict, r.Index)
			}
			continue
		}
		fresh[r.Index] = sum
		write = append(write, recs[i])
	}
	if err := s.writeLocked(write); err != nil {
		return err
	}
	for i, sum := range fresh {
		s.done[i] = sum
	}
	return nil
}

// record encodes one row in the journal's column order.
func (s *StreamWriter) record(r StreamRow) []string {
	rec := make([]string, 0, 3+len(r.Features)+len(s.apps)+len(s.auxNames))
	rec = append(rec, strconv.Itoa(r.Index))
	if r.Failed {
		rec = append(rec, "1")
	} else {
		rec = append(rec, "0")
	}
	for _, v := range r.Features {
		rec = append(rec, strconv.FormatFloat(v, 'g', -1, 64))
	}
	for _, a := range s.apps {
		rec = append(rec, strconv.FormatFloat(r.Targets[a], 'g', -1, 64))
	}
	for _, n := range s.auxNames {
		rec = append(rec, strconv.FormatFloat(r.Aux[n], 'g', -1, 64))
	}
	if s.meta != "" {
		rec = append(rec, "")
	}
	return rec
}

// writeLocked writes and flushes recs, first cutting any torn bytes past
// the intact prefix. On a write error the journal is marked torn, so the
// partial batch is cut before the next append. Caller holds mu.
func (s *StreamWriter) writeLocked(recs [][]string) error {
	if len(recs) == 0 {
		return nil
	}
	if s.torn {
		if err := s.f.Truncate(s.size); err != nil {
			return err
		}
		if _, err := s.f.Seek(s.size, io.SeekStart); err != nil {
			return err
		}
		s.out.n, s.torn = s.size, false
	}
	if s.unterminated {
		if _, err := s.out.Write([]byte{'\n'}); err != nil {
			s.torn = true
			return err
		}
	}
	for _, rec := range recs {
		if err := s.w.Write(rec); err != nil {
			break // the csv writer keeps the error; Error reports it
		}
	}
	s.w.Flush()
	if err := s.w.Error(); err != nil {
		s.torn = true
		s.w = csv.NewWriter(&s.out) // drop the failed writer's sticky error
		return err
	}
	s.size, s.unterminated = s.out.n, false
	return nil
}

// recordDigest is the FNV-1a hash of a record's fields after the index:
// equal rows format to equal strings, so equal digests.
func recordDigest(fields []string) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, f := range fields {
		for i := 0; i < len(f); i++ {
			h = (h ^ uint64(f[i])) * prime
		}
		h = (h ^ ',') * prime
	}
	return h
}

// Done returns a copy of the set of journaled indices (including failures).
func (s *StreamWriter) Done() map[int]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]bool, len(s.done))
	for i := range s.done {
		out[i] = true
	}
	return out
}

// Len returns the number of journaled rows (including failures).
func (s *StreamWriter) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.done)
}

// Close flushes and closes the journal file.
func (s *StreamWriter) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.w.Flush()
	werr := s.w.Error()
	cerr := s.f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// StreamSchema describes a journal's column layout as read back from its
// header.
type StreamSchema struct {
	// Features and Apps are the feature and target column names.
	Features []string
	Apps     []string
	// AuxNames are the auxiliary column headers (including the aux prefix);
	// empty for a schema-v1 journal.
	AuxNames []string
	// Meta is the run-identity stamp embedded in the header, without the
	// _meta: prefix; empty if the journal carries none.
	Meta string
}

// StreamRow is one journaled record as read back by ReadStreamRows. A
// failed row carries its features but nil Targets and Aux.
type StreamRow struct {
	Index    int
	Failed   bool
	Features []float64
	Targets  map[string]float64
	Aux      map[string]float64
}

// ReadStreamRows reads every intact record of a collection journal, deduped
// by index (first record wins; StreamWriter never journals two different
// records for one index) and sorted by global index. Torn tail records and
// rows with unparseable values are dropped, matching OpenJournal and
// CompactStream. This is the resume path's view of a journal's contents —
// an adaptive run reconstructs its prior generations from it.
func ReadStreamRows(path string) (StreamSchema, []StreamRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return StreamSchema{}, nil, err
	}
	defer f.Close()
	cr := csv.NewReader(f)
	header, err := cr.Read()
	if err != nil {
		return StreamSchema{}, nil, fmt.Errorf("dataset: reading %s: reading header: %w", path, err)
	}
	if len(header) < 3 || header[0] != journalIndexCol || header[1] != journalFailedCol {
		return StreamSchema{}, nil, fmt.Errorf("dataset: %s is not a collection journal", path)
	}
	var schema StreamSchema
	cols := header
	if strings.HasPrefix(cols[len(cols)-1], journalMetaPrefix) {
		schema.Meta = strings.TrimPrefix(cols[len(cols)-1], journalMetaPrefix)
		cols = cols[:len(cols)-1] // metadata column carries no row data
	}
	for _, h := range cols[2:] {
		switch {
		case strings.HasPrefix(h, auxPrefix):
			schema.AuxNames = append(schema.AuxNames, h)
		case len(h) > len(targetPrefix) && h[:len(targetPrefix)] == targetPrefix:
			schema.Apps = append(schema.Apps, h[len(targetPrefix):])
		default:
			schema.Features = append(schema.Features, h)
		}
	}
	if len(schema.Apps) == 0 {
		return StreamSchema{}, nil, fmt.Errorf("dataset: %s has no target columns", path)
	}
	cr.FieldsPerRecord = len(header)

	nf, na, nx := len(schema.Features), len(schema.Apps), len(schema.AuxNames)
	var rows []StreamRow
	seen := make(map[int]bool)
	for {
		rec, err := cr.Read()
		if err != nil {
			break // EOF or torn tail
		}
		idx, err := strconv.Atoi(rec[0])
		if err != nil || seen[idx] {
			continue
		}
		seen[idx] = true
		r := StreamRow{Index: idx, Failed: rec[1] != "0", Features: make([]float64, nf)}
		bad := false
		for i := range r.Features {
			r.Features[i], err = strconv.ParseFloat(rec[2+i], 64)
			if err != nil {
				bad = true
				break
			}
		}
		if !bad && !r.Failed {
			r.Targets = make(map[string]float64, na)
			for j, a := range schema.Apps {
				v, err := strconv.ParseFloat(rec[2+nf+j], 64)
				if err != nil {
					bad = true
					break
				}
				r.Targets[a] = v
			}
			r.Aux = make(map[string]float64, nx)
			for j, n := range schema.AuxNames {
				v, err := strconv.ParseFloat(rec[2+nf+na+j], 64)
				if err != nil {
					bad = true
					break
				}
				r.Aux[n] = v
			}
		}
		if bad {
			continue
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Index < rows[j].Index })
	return schema, rows, nil
}

// CompactStream reads a journal written by StreamWriter and materialises it
// as a Dataset: failed rows are dropped (and counted), the rest are sorted
// by global index. Torn tail records are ignored, matching OpenJournal.
func CompactStream(path string) (*Dataset, int, error) {
	schema, rows, err := ReadStreamRows(path)
	if err != nil {
		return nil, 0, err
	}
	failed := 0
	d := NewWithAux(schema.Features, schema.Apps, schema.AuxNames)
	for _, r := range rows {
		if r.Failed {
			failed++
			continue
		}
		if err := d.AppendFull(r.Features, r.Targets, r.Aux); err != nil {
			return nil, 0, err
		}
	}
	return d, failed, nil
}
