package orchestrate

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"

	"armdse/internal/dataset"
	"armdse/internal/params"
)

// collectCSV runs Collect with the given worker count and returns the
// dataset rendered as CSV bytes.
func collectCSV(t *testing.T, opt Options) []byte {
	t.Helper()
	res, err := Collect(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Data.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWorkerCountInvariance(t *testing.T) {
	// Same seed, different worker counts: the dataset must be
	// byte-identical, because configs are derived per index and rows are
	// sorted by index.
	base := Options{Seed: 11, Samples: 10, Suite: tinySuite()}
	one := base
	one.Workers = 1
	eight := base
	eight.Workers = 8
	a := collectCSV(t, one)
	b := collectCSV(t, eight)
	if !bytes.Equal(a, b) {
		t.Error("Workers=1 and Workers=8 datasets differ")
	}
}

func TestResumeEqualsUninterrupted(t *testing.T) {
	dir := t.TempDir()
	features := params.FeatureNames()
	apps := SuiteNames(tinySuite())

	// Uninterrupted run through the streaming path.
	full := filepath.Join(dir, "full.journal")
	sw, err := dataset.CreateStreamAux(full, features, apps, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 21, Samples: 8, Workers: 3, Suite: tinySuite(), Sink: StreamSink{W: sw}}
	if _, err := Collect(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	sw.Close()

	// Interrupted run: cancel after 3 completions, then resume.
	part := filepath.Join(dir, "part.journal")
	pw, err := dataset.CreateStreamAux(part, features, apps, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	iopt := opt
	iopt.Sink = StreamSink{W: pw}
	iopt.Progress = func(ev ProgressEvent) {
		if ev.Done >= 3 {
			cancel()
		}
	}
	res, err := Collect(ctx, iopt)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted Collect error = %v, want context.Canceled", err)
	}
	pw.Close()
	if res.Done >= 8 || res.Done < 3 {
		t.Fatalf("interrupted run finished %d rows, want 3..7", res.Done)
	}

	// Resume from the journal's completed-index set.
	rw, _, err := dataset.OpenJournal(part, features, apps, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if rw.Len() != res.Done {
		t.Fatalf("journal has %d rows, interrupted run reported %d", rw.Len(), res.Done)
	}
	done := rw.Done()
	ropt := opt
	ropt.Sink = StreamSink{W: rw}
	ropt.Skip = func(i int) bool { return done[i] }
	rres, err := Collect(context.Background(), ropt)
	if err != nil {
		t.Fatal(err)
	}
	if rres.Done != 8-res.Done {
		t.Errorf("resumed run did %d rows, want %d", rres.Done, 8-res.Done)
	}
	rw.Close()

	// Compacted outputs must agree byte-for-byte.
	assertCompactEqual(t, full, part)
}

func TestShardUnionEqualsUnsharded(t *testing.T) {
	dir := t.TempDir()
	features := params.FeatureNames()
	apps := SuiteNames(tinySuite())

	full := filepath.Join(dir, "full.journal")
	sw, err := dataset.CreateStreamAux(full, features, apps, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 31, Samples: 9, Workers: 2, Suite: tinySuite(), Sink: StreamSink{W: sw}}
	if _, err := Collect(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	sw.Close()

	// Three shards appending to one shared journal; a shard is a Skip
	// predicate over the index space.
	union := filepath.Join(dir, "union.journal")
	uw, err := dataset.CreateStreamAux(union, features, apps, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for s := 0; s < 3; s++ {
		sopt := opt
		sopt.Sink = StreamSink{W: uw}
		sopt.Skip = func(i int) bool { return i%3 != s }
		res, err := Collect(context.Background(), sopt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Done != 3 {
			t.Errorf("shard %d/3 did %d rows, want 3", s, res.Done)
		}
		total += res.Done
	}
	uw.Close()
	if total != 9 {
		t.Fatalf("shards covered %d rows, want 9", total)
	}
	assertCompactEqual(t, full, union)
}

func assertCompactEqual(t *testing.T, a, b string) {
	t.Helper()
	da, fa, err := dataset.CompactStream(a)
	if err != nil {
		t.Fatal(err)
	}
	db, fb, err := dataset.CompactStream(b)
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Errorf("failed counts differ: %d vs %d", fa, fb)
	}
	var ba, bb bytes.Buffer
	if err := da.WriteCSV(&ba); err != nil {
		t.Fatal(err)
	}
	if err := db.WriteCSV(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Error("compacted datasets differ")
	}
}

func TestCancellationReturnsPartialRows(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := Collect(ctx, Options{
		Seed:    41,
		Samples: 50,
		Workers: 2,
		Suite:   tinySuite(),
		Progress: func(ev ProgressEvent) {
			if ev.Done >= 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if res.Data == nil {
		t.Fatal("cancelled Collect returned no partial dataset")
	}
	if got := res.Data.Len() + res.Failed; got < 2 || got >= 50 {
		t.Errorf("partial rows = %d, want 2..49", got)
	}
	if res.Done != res.Data.Len()+res.Failed {
		t.Errorf("Done = %d, rows+failed = %d", res.Done, res.Data.Len()+res.Failed)
	}
}

func TestEngineValidation(t *testing.T) {
	sink := NewDatasetSink(params.FeatureNames(), SuiteNames(tinySuite()))
	e := &Engine{Suite: tinySuite(), Sink: sink}
	if _, _, err := e.Run(context.Background()); err == nil {
		t.Error("engine without source accepted")
	}
	e = &Engine{Source: RangeSource{Seed: 1, Hi: 2}, Sink: sink}
	if _, _, err := e.Run(context.Background()); err == nil {
		t.Error("engine without suite accepted")
	}
}

// errSink fails on the nth Put, to exercise the abort path.
type errSink struct {
	n     int
	count int
}

func (s *errSink) Put(Row) error {
	s.count++
	if s.count >= s.n {
		return errors.New("sink full")
	}
	return nil
}

func TestSinkErrorAbortsRun(t *testing.T) {
	_, err := Collect(context.Background(), Options{
		Seed:    51,
		Samples: 20,
		Workers: 2,
		Suite:   tinySuite(),
		Sink:    &errSink{n: 2},
	})
	if err == nil || err.Error() != "sink full" {
		t.Errorf("error = %v, want sink full", err)
	}
}

func TestSliceSource(t *testing.T) {
	cfgs := params.SampleN(61, 3)
	src := SliceSource(cfgs)
	if src.Len() != 3 {
		t.Fatalf("Len = %d", src.Len())
	}
	sink := NewDatasetSink(params.FeatureNames(), SuiteNames(tinySuite()))
	e := &Engine{Source: src, Suite: tinySuite(), Sink: sink, Workers: 2}
	done, failed, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	d, f, err := sink.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if done != 3 || f != failed {
		t.Errorf("done = %d failed = %d/%d", done, failed, f)
	}
	if d.Len()+f != 3 {
		t.Errorf("rows %d + failed %d != 3", d.Len(), f)
	}
}

// countingSource is a fixed source that counts its At calls.
type countingSource struct {
	n     int
	calls atomic.Int64
}

func (s *countingSource) Len() int { return s.n }

func (s *countingSource) At(i int) params.Config {
	s.calls.Add(1)
	return params.ConfigAt(1, i)
}

// TestFixedSourceIsLazy pins that a fixed sweep — a local one or a fabric
// worker's leased range — derives a configuration only when it dispatches
// it: over a 1 Mi-index source with all but 4 indices skipped, the engine
// must call At exactly 4 times, under the single-generation exact feed and
// the hybrid's generation cuts alike.
func TestFixedSourceIsLazy(t *testing.T) {
	smallHybridGenerations(t, 2, hybridRefresh)
	keep := map[int]bool{0: true, 1000: true, 1 << 19: true, 1<<20 - 1: true}
	for _, kind := range []string{EvalExact, EvalHybrid} {
		src := &countingSource{n: 1 << 20}
		e := &Engine{
			Source:  src,
			Suite:   tinySuite(),
			Sink:    newRowRecorder(),
			Eval:    kind,
			Workers: 2,
			Skip:    func(i int) bool { return !keep[i] },
		}
		done, _, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if done != len(keep) {
			t.Errorf("%s: done = %d, want %d", kind, done, len(keep))
		}
		if got := src.calls.Load(); got != int64(len(keep)) {
			t.Errorf("%s: At called %d times, want %d", kind, got, len(keep))
		}
	}
}

// TestRunHonoursCancelledContext pins that a run whose context is already
// cancelled derives and sinks nothing: the dispatch select alone picks at
// random between a ready worker and the closed Done channel.
func TestRunHonoursCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := &countingSource{n: 8}
	rec := newRowRecorder()
	e := &Engine{Source: src, Suite: tinySuite(), Sink: rec, Workers: 2}
	if _, _, err := e.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if got := src.calls.Load(); got != 0 {
		t.Errorf("At called %d times, want 0", got)
	}
	if got := len(rec.indices()); got != 0 {
		t.Errorf("Put called %d times, want 0", got)
	}
}
