package orchestrate

import (
	"fmt"
	"sort"
	"sync"

	"armdse/internal/dataset"
	"armdse/internal/simeng"
)

// StallColumns returns the auxiliary column names a collection over the
// given applications emits: one dataset.StallColumn per (app, stall class)
// pair, app-major, classes in simeng enum order.
func StallColumns(apps []string) []string {
	return dataset.StallColumns(apps, simeng.StallClassNames())
}

// RunMeta is a collection journal's identity stamp: seed, index-space size
// and suite scale, plus the evaluator when it is not exact and the proposer
// digest of an adaptive run. Workers are left out: they never change which
// rows a journal holds. dsegen and the dsecoord fleet both stamp through
// it, so either tool resumes the other's exact journal, and a journal of
// another run — say, a different evaluator, which would mix simulated and
// predicted rows — carries another stamp and is refused.
func RunMeta(seed int64, samples int, paper bool, eval, search string) string {
	m := fmt.Sprintf("seed=%d samples=%d paper=%t", seed, samples, paper)
	if eval != "" && eval != EvalExact {
		m += " eval=" + eval
	}
	if search != "" {
		m += " search=" + search
	}
	return m
}

// StallAux flattens the row's per-app stall breakdowns into auxiliary
// column values keyed by dataset.StallColumn; nil when the row carries no
// breakdowns (failed rows).
func (r Row) StallAux() map[string]float64 {
	if r.Stalls == nil {
		return nil
	}
	classes := simeng.StallClassNames()
	out := make(map[string]float64, len(r.Stalls)*len(classes))
	for app, b := range r.Stalls {
		for c, name := range classes {
			out[dataset.StallColumn(app, name)] = float64(b[c])
		}
	}
	return out
}

// DatasetSink buffers completed rows in memory and materialises them as a
// dataset.Dataset sorted by global index, so the result is identical
// regardless of worker count or completion order — the engine-native
// replacement for the old collect-then-append loop.
type DatasetSink struct {
	mu           sync.Mutex
	featureNames []string
	apps         []string
	rows         []Row
}

// NewDatasetSink builds an in-memory sink with the given feature and
// target columns.
func NewDatasetSink(featureNames, apps []string) *DatasetSink {
	return &DatasetSink{
		featureNames: append([]string(nil), featureNames...),
		apps:         append([]string(nil), apps...),
	}
}

// Put implements RowSink.
func (s *DatasetSink) Put(row Row) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rows = append(s.rows, row)
	return nil
}

// Dataset returns the successful rows sorted by index as a dataset,
// together with the number of failed rows.
func (s *DatasetSink) Dataset() (*dataset.Dataset, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sort.Slice(s.rows, func(i, j int) bool { return s.rows[i].Index < s.rows[j].Index })
	d := dataset.NewWithAux(s.featureNames, s.apps, StallColumns(s.apps))
	failed := 0
	for _, r := range s.rows {
		if r.Failed() {
			failed++
			continue
		}
		aux := r.StallAux()
		if aux == nil {
			// Rows without breakdowns (hand-built sources) pad zeros.
			if err := d.Append(r.Features, r.Targets); err != nil {
				return nil, 0, err
			}
			continue
		}
		if err := d.AppendFull(r.Features, r.Targets, aux); err != nil {
			return nil, 0, err
		}
	}
	return d, failed, nil
}

// FirstError returns the first (lowest-index) row error, or nil.
func (s *DatasetSink) FirstError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	first := -1
	for _, r := range s.rows {
		if r.Err != nil && (first < 0 || r.Index < first) {
			first = r.Index
			firstErr = r.Err
		}
	}
	return firstErr
}

// StreamSink adapts a dataset.StreamWriter to the RowSink interface: rows
// are appended to the on-disk journal as they complete, so an interrupted
// run keeps everything already simulated and can resume from the journal's
// completed-index set.
type StreamSink struct {
	W *dataset.StreamWriter
}

// Put implements RowSink.
func (s StreamSink) Put(row Row) error {
	return s.W.AppendFull(row.Index, row.Failed(), row.Features, row.Targets, row.StallAux())
}
