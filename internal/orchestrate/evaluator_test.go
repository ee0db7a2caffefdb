package orchestrate

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"armdse/internal/params"
	"armdse/internal/simeng"
	"armdse/internal/workload"
)

// TestEvaluatorFactoryErrors table-drives every error path of the two
// by-name factories: both must reject unknown kinds with an error that
// names the offender and lists the valid kinds.
func TestEvaluatorFactoryErrors(t *testing.T) {
	cases := []struct {
		name    string
		kind    string
		wantErr bool
	}{
		{"empty is exact", "", false},
		{"exact", EvalExact, false},
		{"hybrid", EvalHybrid, false},
		{"bound", "bound", true},
		{"unknown", "oracle", true},
		{"case sensitive", "Exact", true},
		{"whitespace", " exact", true},
		{"backend name is not an evaluator", BackendFlat, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ev, err := NewEvaluator(tc.kind, EvalOptions{})
			if tc.wantErr {
				if err == nil {
					t.Fatalf("NewEvaluator(%q) accepted", tc.kind)
				}
				for _, want := range append(Evaluators(), tc.kind) {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("error %q does not mention %q", err, want)
					}
				}
				if ev != nil {
					t.Errorf("non-nil evaluator alongside error")
				}
				return
			}
			if err != nil {
				t.Fatalf("NewEvaluator(%q): %v", tc.kind, err)
			}
			if ev == nil {
				t.Fatalf("nil evaluator without error")
			}
		})
	}
}

// TestBackendFactoryErrors table-drives NewBackend's error paths the same
// way (the evaluator factory mirrors its contract).
func TestBackendFactoryErrors(t *testing.T) {
	cfg := params.ThunderX2()
	cases := []struct {
		name    string
		kind    string
		wantErr bool
	}{
		{"empty is sst", "", false},
		{"sst", BackendSST, false},
		{"flat", BackendFlat, false},
		{"proxy", "proxy", true},
		{"unknown", "dram", true},
		{"case sensitive", "SST", true},
		{"evaluator name is not a backend", EvalHybrid, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mem, err := NewBackend(tc.kind, cfg)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("NewBackend(%q) accepted", tc.kind)
				}
				for _, want := range []string{BackendSST, BackendFlat, tc.kind} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("error %q does not mention %q", err, want)
					}
				}
				return
			}
			if err != nil {
				t.Fatalf("NewBackend(%q): %v", tc.kind, err)
			}
			if mem == nil {
				t.Fatalf("nil backend without error")
			}
		})
	}
}

func TestEngineRejectsUnknownEval(t *testing.T) {
	_, err := Collect(context.Background(), Options{
		Seed: 1, Samples: 1, Suite: tinySuite(), Eval: "oracle",
	})
	if err == nil || !strings.Contains(err.Error(), "oracle") {
		t.Fatalf("unknown evaluator accepted: %v", err)
	}
}

// evaluateOne evaluates cfg on a one-app suite through a fresh per-worker
// evaluator of the given kind — the way dserun evaluates.
func evaluateOne(t *testing.T, kind string, cfg params.Config, w workload.Workload) Evaluation {
	t.Helper()
	ev, err := NewEvaluator(kind, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.Worker(0).Evaluate([]workload.Workload{w}, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Stats) != 1 {
		t.Fatalf("%d stats records for a one-app suite", len(got.Stats))
	}
	return got
}

func TestExactEvaluatorMatchesRunOne(t *testing.T) {
	cfg := params.ThunderX2()
	w := tinySuite()[0]
	want, err := RunOneOn(BackendSST, cfg, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := evaluateOne(t, EvalExact, cfg, w)
	if got.Predicted || got.Confidence != 0 {
		t.Errorf("exact evaluation flags: predicted=%v confidence=%g", got.Predicted, got.Confidence)
	}
	if !reflect.DeepEqual(got.Stats[0], want) {
		t.Errorf("exact evaluation stats differ from RunOneOn:\n got %+v\nwant %+v", got.Stats[0], want)
	}
}

// rowRecorder captures every emitted row keyed by index.
type rowRecorder struct {
	mu   sync.Mutex
	rows map[int]Row
}

func newRowRecorder() *rowRecorder { return &rowRecorder{rows: make(map[int]Row)} }

func (r *rowRecorder) Put(row Row) error {
	r.mu.Lock()
	r.rows[row.Index] = row
	r.mu.Unlock()
	return nil
}

func (r *rowRecorder) indices() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := make([]int, 0, len(r.rows))
	for i := range r.rows {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}

// smallHybridGenerations shrinks the hybrid's fixed-source generation sizes
// for the rest of the test, so tiny collections reach the predicting path.
func smallHybridGenerations(t *testing.T, warmup, refresh int) {
	w, r := hybridWarmup, hybridRefresh
	hybridWarmup, hybridRefresh = warmup, refresh
	t.Cleanup(func() { hybridWarmup, hybridRefresh = w, r })
}

// hybridCollect runs a hybrid collection into a row recorder, with a
// 6-config warmup and 4-config refresh generations.
func hybridCollect(t *testing.T, workers int, escalate float64) *rowRecorder {
	t.Helper()
	smallHybridGenerations(t, 6, 4)
	rec := newRowRecorder()
	_, err := Collect(context.Background(), Options{
		Seed: 7, Samples: 18, Workers: workers, Suite: tinySuite(),
		Eval: EvalHybrid, EvalEscalate: escalate,
		Sink: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestHybridRoutingDeterminism pins the seam's hardest invariant: with the
// same seed and thresholds, a hybrid collection makes identical routing
// decisions and emits identical rows at any worker count — the evaluator
// analogue of TestWorkerCountInvariance.
func TestHybridRoutingDeterminism(t *testing.T) {
	for _, escalate := range []float64{0.05, 0.5} {
		a := hybridCollect(t, 1, escalate)
		for _, workers := range []int{2, 4, 8} {
			b := hybridCollect(t, workers, escalate)
			if len(a.rows) != len(b.rows) {
				t.Fatalf("escalate %g: row counts differ: %d (1 worker) vs %d (%d workers)",
					escalate, len(a.rows), len(b.rows), workers)
			}
			for _, i := range a.indices() {
				ra, rb := a.rows[i], b.rows[i]
				if ra.Predicted != rb.Predicted {
					t.Errorf("escalate %g: row %d routing differs: 1 worker predicted=%v, %d workers predicted=%v",
						escalate, i, ra.Predicted, workers, rb.Predicted)
					continue
				}
				if ra.Confidence != rb.Confidence {
					t.Errorf("escalate %g workers %d: row %d confidence differs: %g vs %g",
						escalate, workers, i, ra.Confidence, rb.Confidence)
				}
				for app, ca := range ra.Targets {
					if cb := rb.Targets[app]; ca != cb {
						t.Errorf("escalate %g workers %d: row %d %s cycles differ: %g vs %g",
							escalate, workers, i, app, ca, cb)
					}
					if ra.Stalls[app] != rb.Stalls[app] {
						t.Errorf("escalate %g workers %d: row %d %s stalls differ", escalate, workers, i, app)
					}
				}
			}
		}
	}
}

// TestHybridEscalatedRowsMatchExact pins the escalation contract: every
// escalated row of a hybrid collection is byte-identical to the same
// index's row under the exact evaluator, and the warmup prefix is always
// escalated.
func TestHybridEscalatedRowsMatchExact(t *testing.T) {
	exact := newRowRecorder()
	if _, err := Collect(context.Background(), Options{
		Seed: 7, Samples: 18, Workers: 2, Suite: tinySuite(), Sink: exact,
	}); err != nil {
		t.Fatal(err)
	}
	hybrid := hybridCollect(t, 2, 0.3)

	escalated := 0
	for _, i := range hybrid.indices() {
		hr := hybrid.rows[i]
		if i < 6 && hr.Predicted {
			t.Errorf("warmup row %d was predicted", i)
		}
		if hr.Predicted {
			continue
		}
		escalated++
		er, ok := exact.rows[i]
		if !ok {
			t.Fatalf("no exact row %d", i)
		}
		for app, want := range er.Targets {
			if got := hr.Targets[app]; got != want {
				t.Errorf("escalated row %d %s: hybrid %g != exact %g", i, app, got, want)
			}
			if hr.Stalls[app] != er.Stalls[app] {
				t.Errorf("escalated row %d %s stalls differ", i, app)
			}
		}
		if hr.Cycles != er.Cycles || hr.Confidence != 0 {
			t.Errorf("escalated row %d: cycles %d vs %d, confidence %g", i, hr.Cycles, er.Cycles, hr.Confidence)
		}
	}
	if escalated < 6 {
		t.Errorf("only %d rows escalated, expected at least the 6-row warmup", escalated)
	}
	// Predicted rows must stay inside the analytical bracket of their
	// configuration.
	for _, i := range hybrid.indices() {
		hr := hybrid.rows[i]
		if !hr.Predicted {
			continue
		}
		cfg := hr.Config
		bm, err := simeng.NewBoundModel(cfg.Core, cfg.MemProfile())
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		for _, w := range tinySuite() {
			prog, err := w.Program(cfg.Core.VectorLength)
			if err != nil {
				t.Fatal(err)
			}
			b := bm.Bounds(prog.Stats())
			got := hr.Targets[w.Name()]
			if got < float64(b.Lower) || got > float64(b.Upper) {
				t.Errorf("predicted row %d %s: %g outside [%d, %d]", i, w.Name(), got, b.Lower, b.Upper)
			}
		}
	}
}

// TestHybridSkipInvariance pins that the hybrid's warmup and refresh
// generations are cut over the non-skipped index list: a hybrid run over a
// source with a shard-style Skip must route and predict exactly like a
// hybrid run over a SliceSource holding just the kept configurations (rows
// equal apart from Index).
func TestHybridSkipInvariance(t *testing.T) {
	smallHybridGenerations(t, 6, 4)
	const n = 40
	src := RangeSource{Seed: 7, Hi: n}
	inShard := func(i int) bool { return i%2 == 1 }
	var kept SliceSource
	var keptIdx []int
	for i := 0; i < n; i++ {
		if inShard(i) {
			kept = append(kept, src.At(i))
			keptIdx = append(keptIdx, i)
		}
	}
	run := func(source ConfigSource, skip func(int) bool) *rowRecorder {
		rec := newRowRecorder()
		e := &Engine{
			Source: source, Suite: tinySuite(), Sink: rec, Workers: 2, Seed: 7,
			Eval: EvalHybrid, EvalEscalate: 0.5,
			Skip: skip,
		}
		if _, _, err := e.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	sharded := run(src, func(i int) bool { return !inShard(i) })
	sliced := run(kept, nil)
	if len(sharded.rows) != len(kept) || len(sliced.rows) != len(kept) {
		t.Fatalf("row counts %d (sharded), %d (sliced), want %d", len(sharded.rows), len(sliced.rows), len(kept))
	}
	predicted := 0
	for k, i := range keptIdx {
		a, b := sharded.rows[i], sliced.rows[k]
		b.Index = i
		if !reflect.DeepEqual(a, b) {
			t.Errorf("kept config %d (index %d): sharded row predicted=%v differs from sliced row predicted=%v",
				k, i, a.Predicted, b.Predicted)
		}
		if a.Predicted {
			predicted++
		}
	}
	if predicted == 0 {
		t.Error("no predicted rows: the test does not exercise routing")
	}
}

// TestHybridStandaloneEvaluator drives the hybrid through its per-worker
// form outside the engine: until a refit every evaluation escalates to exact
// simulation, and once the residual forests are fitted, confident points
// answer without simulation.
func TestHybridStandaloneEvaluator(t *testing.T) {
	suite := tinySuite()[:1]
	ev, err := NewEvaluator(EvalHybrid, EvalOptions{Seed: 3, Escalate: 5})
	if err != nil {
		t.Fatal(err)
	}
	ew := ev.Worker(0)
	for i := 0; i < 8; i++ {
		got, err := ew.Evaluate(suite, i, params.ConfigAt(3, i))
		if err != nil {
			t.Fatal(err)
		}
		if got.Predicted {
			t.Errorf("evaluation %d predicted before any refit", i)
		}
	}
	ev.refit()
	// With an absurdly generous threshold the fitted forest must now answer
	// a fresh point without simulation.
	got, err := ew.Evaluate(suite, 100, params.ConfigAt(3, 100))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Predicted {
		t.Error("post-refit evaluation escalated despite threshold 5")
	}
	if got.Confidence <= 0 || got.Confidence > 1 || got.Stats[0].Cycles <= 0 {
		t.Errorf("predicted evaluation: %+v", got)
	}
}
