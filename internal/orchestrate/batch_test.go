package orchestrate

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"testing"

	"armdse/internal/dataset"
	"armdse/internal/params"
)

// The degenerate case of the seam: a BatchSource proposing a fixed sweep's
// configurations as one batch must produce byte-identical output to the
// fixed sweep, at any worker count.
func TestFixedBatchesMatchesFixedSweep(t *testing.T) {
	fixed := Options{Seed: 11, Samples: 10, Suite: tinySuite(), Workers: 2}
	want := collectCSV(t, fixed)
	for _, workers := range []int{1, 2, 8} {
		batch := Options{
			Seed:    11,
			Suite:   tinySuite(),
			Workers: workers,
			Batches: singleBatch(RangeSource{Seed: 11, Hi: 10}),
		}
		got := collectCSV(t, batch)
		if !bytes.Equal(want, got) {
			t.Errorf("single-batch source at Workers=%d differs from the fixed sweep", workers)
		}
	}
}

// singleBatch proposes all of src as one batch.
func singleBatch(src ConfigSource) *scriptedBatches {
	cfgs := make([]params.Config, src.Len())
	for i := range cfgs {
		cfgs[i] = src.At(i)
	}
	return &scriptedBatches{batches: [][]params.Config{cfgs}}
}

// scriptedBatches proposes a fixed script of batches and records what prior
// rows it was shown, for asserting the engine's feed contract.
type scriptedBatches struct {
	batches [][]params.Config
	calls   int
	priors  [][]int // indices of the prior rows at each call
}

func (s *scriptedBatches) NextBatch(prior []Row) ([]params.Config, bool) {
	idxs := make([]int, len(prior))
	for i, r := range prior {
		idxs[i] = r.Index
	}
	s.priors = append(s.priors, idxs)
	if s.calls >= len(s.batches) {
		return nil, false
	}
	b := s.batches[s.calls]
	s.calls++
	return b, true
}

func TestBatchFeedContract(t *testing.T) {
	// Three batches of 3, 2 and 2 configs: the engine must assign
	// contiguous indices, pass back exactly the complete earlier batches
	// sorted by index, and tag rows with their generation.
	var cfgs []params.Config
	for i := 0; i < 7; i++ {
		cfgs = append(cfgs, params.ConfigAt(5, i))
	}
	src := &scriptedBatches{batches: [][]params.Config{cfgs[:3], cfgs[3:5], cfgs[5:7]}}
	sink := NewDatasetSink(params.FeatureNames(), SuiteNames(tinySuite()))
	var gens []int
	eng := &Engine{
		Batches: src,
		Suite:   tinySuite(),
		Sink: rowTap{sink, func(r Row) {
			gens = append(gens, r.Gen)
		}},
		Workers: 3,
	}
	done, failed, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if done != 7 || failed != 0 {
		t.Fatalf("done=%d failed=%d, want 7/0", done, failed)
	}
	wantPriors := [][]int{{}, {0, 1, 2}, {0, 1, 2, 3, 4}, {0, 1, 2, 3, 4, 5, 6}}
	if len(src.priors) != len(wantPriors) {
		t.Fatalf("proposer called %d times, want %d", len(src.priors), len(wantPriors))
	}
	for i, want := range wantPriors {
		if fmt.Sprint(src.priors[i]) != fmt.Sprint(want) {
			t.Errorf("call %d saw prior indices %v, want %v", i, src.priors[i], want)
		}
	}
	genCount := map[int]int{}
	for _, g := range gens {
		genCount[g]++
	}
	if genCount[0] != 3 || genCount[1] != 2 || genCount[2] != 2 {
		t.Errorf("generation tags wrong: %v", genCount)
	}
}

// rowTap forwards rows to a sink and observes each one.
type rowTap struct {
	sink RowSink
	fn   func(Row)
}

func (t rowTap) Put(row Row) error {
	t.fn(row)
	return t.sink.Put(row)
}

func TestEngineRejectsSourceAndBatches(t *testing.T) {
	sink := NewDatasetSink(params.FeatureNames(), SuiteNames(tinySuite()))
	both := &Engine{
		Source:  RangeSource{Seed: 1, Hi: 2},
		Batches: singleBatch(RangeSource{Seed: 1, Hi: 2}),
		Suite:   tinySuite(),
		Sink:    sink,
	}
	if _, _, err := both.Run(context.Background()); err == nil {
		t.Fatal("Source+Batches accepted")
	}
	neither := &Engine{Suite: tinySuite(), Sink: sink}
	if _, _, err := neither.Run(context.Background()); err == nil {
		t.Fatal("engine with neither Source nor Batches accepted")
	}
}

// A batch run interrupted mid-flight and resumed with Prior + Skip must
// produce the same compacted dataset as an uninterrupted one.
func TestBatchResumeEqualsUninterrupted(t *testing.T) {
	dir := t.TempDir()
	features := params.FeatureNames()
	apps := SuiteNames(tinySuite())
	script := func() *scriptedBatches {
		var cfgs []params.Config
		for i := 0; i < 9; i++ {
			cfgs = append(cfgs, params.ConfigAt(31, i))
		}
		return &scriptedBatches{batches: [][]params.Config{cfgs[:3], cfgs[3:6], cfgs[6:9]}}
	}

	full := filepath.Join(dir, "full.journal")
	sw, err := dataset.CreateStreamAux(full, features, apps, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Suite: tinySuite(), Workers: 2, Batches: script(), Sink: StreamSink{W: sw}}
	if _, err := Collect(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	sw.Close()

	// Interrupt after 4 completions (mid-generation-1), then resume.
	part := filepath.Join(dir, "part.journal")
	pw, err := dataset.CreateStreamAux(part, features, apps, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	iopt := opt
	iopt.Batches = script()
	iopt.Sink = StreamSink{W: pw}
	iopt.Progress = func(ev ProgressEvent) {
		if ev.Done >= 4 {
			cancel()
		}
	}
	_, err = Collect(ctx, iopt)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted Collect error = %v, want context.Canceled", err)
	}
	pw.Close()

	prior, err := PriorRowsFromJournal(part)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) < 4 {
		t.Fatalf("journal kept %d rows, want >= 4", len(prior))
	}
	rw, _, err := dataset.OpenJournal(part, features, apps, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	skip := rw.Done()
	ropt := opt
	ropt.Batches = script()
	ropt.Prior = prior
	ropt.Sink = StreamSink{W: rw}
	ropt.Skip = func(i int) bool { return skip[i] }
	if _, err := Collect(context.Background(), ropt); err != nil {
		t.Fatal(err)
	}
	rw.Close()

	a, _, err := dataset.CompactStream(full)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := dataset.CompactStream(part)
	if err != nil {
		t.Fatal(err)
	}
	var ab, bb bytes.Buffer
	if err := a.WriteCSV(&ab); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteCSV(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Error("resumed batch run differs from uninterrupted run")
	}
}

// A differing meta stamp is what rejects resuming a proposed-batch journal
// against a different source.
func TestSliceSourceResumeRejectedOnDigestMismatch(t *testing.T) {
	dir := t.TempDir()
	features := params.FeatureNames()
	apps := SuiteNames(tinySuite())
	meta := "suite=tiny source=0123456789abcdef"
	path := filepath.Join(dir, "slice.journal")
	sw, err := dataset.CreateStreamAux(path, features, apps, nil, meta)
	if err != nil {
		t.Fatal(err)
	}
	sw.Close()

	otherMeta := "suite=tiny source=fedcba9876543210"
	if _, _, err := dataset.OpenJournal(path, features, apps, nil, otherMeta); err == nil {
		t.Fatal("resume against a different source accepted")
	} else if errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("unexpected error kind: %v", err)
	}
	if _, _, err := dataset.OpenJournal(path, features, apps, nil, meta); err != nil {
		t.Fatalf("resume against the same source rejected: %v", err)
	}
}
