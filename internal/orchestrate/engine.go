package orchestrate

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"armdse/internal/params"
	"armdse/internal/simeng"
	"armdse/internal/workload"
)

// The staged collection engine. Collection is wired as three explicit,
// separately testable stages:
//
//	config source  →  worker stage  →  row sink
//
// The source yields design-space points by global index, derived
// independently per index (params.ConfigAt), so any subset of indices can
// be simulated on any worker, in any fleet lease, or in any resumed run and the
// final dataset is identical. The worker stage simulates the full workload
// suite on one configuration and emits a Row outcome record. The sink
// consumes rows as they complete — in memory (DatasetSink) or streamed to
// an on-disk journal (StreamSink) that survives interruption.

// ConfigSource yields design-space points by global index.
type ConfigSource interface {
	// Len is the total number of configurations in the run's index space.
	Len() int
	// At returns configuration i, 0 <= i < Len(). Implementations must be
	// deterministic and safe for concurrent use.
	At(i int) params.Config
}

// IndexedSource derives configuration i directly from (Seed, i) via
// params.ConfigAt — the engine's default source.
type IndexedSource struct {
	Seed int64
	N    int
}

// Len implements ConfigSource.
func (s IndexedSource) Len() int { return s.N }

// At implements ConfigSource.
func (s IndexedSource) At(i int) params.Config { return params.ConfigAt(s.Seed, i) }

// SliceSource serves a pre-materialised configuration list.
type SliceSource []params.Config

// Len implements ConfigSource.
func (s SliceSource) Len() int { return len(s) }

// At implements ConfigSource.
func (s SliceSource) At(i int) params.Config { return s[i] }

// Row is the outcome record of one configuration.
type Row struct {
	// Index is the configuration's global index in the source.
	Index int
	// Gen is the proposal generation that produced the configuration under
	// a BatchSource; always 0 in a fixed-source run.
	Gen int
	// Config is the simulated design-space point.
	Config params.Config
	// Features is the canonical feature encoding of Config.
	Features []float64
	// Targets maps application name to simulated cycles; nil when Err is
	// non-nil.
	Targets map[string]float64
	// Stalls maps application name to the run's per-class stall
	// breakdown (each sums to that run's cycles); nil when Err is
	// non-nil.
	Stalls map[string]simeng.StallBreakdown
	// Cycles is the total number of cycles simulated across the suite.
	Cycles int64
	// Err records the first per-run failure; nil for a clean row.
	Err error
	// Predicted reports that Targets came from the learned model rather
	// than exact simulation — always false under the exact evaluator, true
	// for the hybrid's non-escalated rows.
	Predicted bool
	// Confidence is the evaluator's self-assessed reliability of a
	// predicted row, in (0, 1]; zero on exact rows.
	Confidence float64
}

// Failed reports whether the row was dropped by the validation gate.
func (r Row) Failed() bool { return r.Err != nil }

// RowSink consumes completed rows. The engine calls Put from multiple
// worker goroutines concurrently, in completion order (not index order);
// implementations must be safe for concurrent use. A Put error aborts the
// run.
type RowSink interface {
	Put(row Row) error
}

// ProgressEvent snapshots a running collection after a configuration
// finishes.
type ProgressEvent struct {
	// Done counts finished configurations, including failed ones.
	Done int
	// Failed counts configurations dropped by the validation gate so far.
	Failed int
	// Total is the number of configurations this run will attempt — the
	// source size minus skipped indices.
	Total int
	// RowsPerSec is the mean completion rate since the run started.
	RowsPerSec float64
	// Cycles is the total number of core cycles simulated so far.
	Cycles int64
	// Elapsed is the monotonic wall time since the run started.
	Elapsed time.Duration
	// ETA estimates the remaining wall time from the mean completion rate;
	// zero until the first row lands and once the run is complete. Computed
	// once here so every consumer (CLI progress line, monitor endpoint,
	// journal heartbeats) shares the same estimate.
	ETA time.Duration
}

// Engine wires the stages together and runs the worker pool.
type Engine struct {
	// Source yields the configurations. Exactly one of Source and Batches
	// must be set.
	Source ConfigSource
	// Batches, when set, proposes configurations generation by generation
	// during the run (the adaptive seam; see BatchSource). The engine runs
	// each batch to a full barrier and feeds all completed rows back before
	// requesting the next.
	Batches BatchSource
	// Prior seeds a Batches run with the completed rows of an interrupted
	// one (see PriorRowsFromJournal) so the proposal sequence replays
	// identically; combine with Skip to avoid re-simulating them. Ignored
	// for fixed-source runs.
	Prior []Row
	// Suite is the workload set simulated on every configuration;
	// required.
	Suite []workload.Workload
	// Sink receives every completed row; required.
	Sink RowSink
	// Backend selects the memory backend by name (BackendSST, BackendFlat,
	// BackendProxy); empty uses BackendSST, the study's default.
	Backend string
	// Eval selects the per-config evaluator by name (EvalExact,
	// EvalHybrid); empty uses EvalExact, the study's default. The exact
	// path is untouched by the seam: an empty or "exact" Eval produces
	// byte-identical output to engines predating the field.
	Eval string
	// EvalEscalate is the hybrid evaluator's escalation threshold on the
	// residual forest's log-space spread; 0 uses DefaultEvalEscalate.
	EvalEscalate float64
	// Seed drives the hybrid evaluator's residual-training substreams (it
	// does not affect the Source). A hybrid run is deterministic in
	// (Source, Seed, thresholds): identical inputs route and predict
	// identically at any worker count.
	Seed int64
	// Workers bounds the worker pool; 0 uses GOMAXPROCS.
	Workers int
	// MaxCyclesPerRun aborts pathological runs; 0 uses the engine
	// default.
	MaxCyclesPerRun int64
	// Skip, when non-nil, drops index i before simulation — the resume
	// hook (pass the journal's completed-index set).
	Skip func(i int) bool
	// Progress, when non-nil, is invoked after every finished
	// configuration.
	//
	// Concurrency contract: the engine serialises all Progress calls (it
	// is never invoked concurrently with itself), but successive calls
	// may come from different worker goroutines. Done increases by
	// exactly one per call. The callback runs on the hot path — keep it
	// fast and do not block.
	Progress func(ev ProgressEvent)
	// Telemetry, when non-nil, receives per-run metrics, sweep gauges and
	// JSONL journal records; see Telemetry. Recording is allocation-free
	// and purely observational — a telemetered run produces byte-identical
	// dataset output.
	Telemetry *Telemetry
}

// Run feeds every non-skipped index through the worker stage into the
// sink. It returns the done/failed counts. On context cancellation it
// stops feeding, drains in-flight configurations into the sink, and
// returns ctx.Err() — everything already completed is preserved by the
// sink.
func (e *Engine) Run(ctx context.Context) (done, failed int, err error) {
	if (e.Source == nil) == (e.Batches == nil) {
		return 0, 0, fmt.Errorf("orchestrate: engine needs exactly one of Source and Batches")
	}
	if e.Sink == nil {
		return 0, 0, fmt.Errorf("orchestrate: engine needs a Sink")
	}
	if len(e.Suite) == 0 {
		return 0, 0, fmt.Errorf("orchestrate: empty workload suite")
	}
	batchMode := e.Batches != nil
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ev, err := NewEvaluator(e.Eval, EvalOptions{
		Backend:   e.Backend,
		MaxCycles: e.MaxCyclesPerRun,
		Escalate:  e.EvalEscalate,
		Seed:      e.Seed,
		Workers:   workers,
	})
	if err != nil {
		return 0, 0, err
	}
	skip := func(i int) bool { return e.Skip != nil && e.Skip(i) }

	// A fixed source's work is its non-skipped index list, known up front;
	// configurations are still derived by At(i) only at dispatch. A batch
	// run discovers its work generation by generation, so its progress
	// total is the source's Budget hint (0 when it offers none), refined
	// downward as skipped indices are discovered.
	var todo []int
	total := 0
	if !batchMode {
		for i := 0; i < e.Source.Len(); i++ {
			if !skip(i) {
				todo = append(todo, i)
			}
		}
		total = len(todo)
	} else if b, ok := e.Batches.(Budgeter); ok {
		total = b.Budget()
	}

	start := time.Now()
	tel := e.Telemetry
	tel.bind(e.Suite, workers, total, start)
	tel.bindEval(e.Eval)
	tel.bindBatchMode(batchMode)
	ev.instrument(tel)

	type job struct {
		idx     int
		gen     int
		cfg     params.Config
		pending *sync.WaitGroup
	}
	jobs := make(chan job)
	var wg sync.WaitGroup

	// Shared run state, guarded by mu: progress counters, the first sink
	// error (which aborts the run), and — in batch mode — the rows
	// completed in the current batch, tapped for the proposer.
	var mu sync.Mutex
	var cycles int64
	var sinkErr error
	var batchRows []Row

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			ew := ev.Worker(worker)
			for j := range jobs {
				t0 := time.Now()
				row := evalRow(ew, e.Suite, j.idx, j.cfg)
				row.Gen = j.gen
				tel.configDone(worker, &row, time.Since(t0).Nanoseconds())
				mu.Lock()
				if sinkErr != nil {
					mu.Unlock()
					j.pending.Done()
					continue
				}
				sp := tel.sinkHist().Start(worker)
				err := e.Sink.Put(row)
				sp.End()
				if err != nil {
					sinkErr = err
					mu.Unlock()
					j.pending.Done()
					continue
				}
				if batchMode {
					batchRows = append(batchRows, row)
				}
				done++
				if row.Failed() {
					failed++
				}
				cycles += row.Cycles
				elapsed := time.Since(start)
				pe := ProgressEvent{
					Done:       done,
					Failed:     failed,
					Total:      total,
					RowsPerSec: float64(done) / elapsed.Seconds(),
					Cycles:     cycles,
					Elapsed:    elapsed,
				}
				if done > 0 && done < total {
					pe.ETA = time.Duration(float64(elapsed) * float64(total-done) / float64(done))
				}
				tel.progress(pe)
				if e.Progress != nil {
					e.Progress(pe)
				}
				mu.Unlock()
				j.pending.Done()
			}
		}(w)
	}

	// Feed stage: one loop over generations. Every job of a generation is
	// joined through its WaitGroup before the next generation opens; that
	// barrier is where the hybrid's residual forests refit and where the
	// proposer sees the completed rows, which keeps routing and proposals
	// deterministic at any worker count.
	//
	// A fixed source is one generation over its non-skipped indices; under
	// the hybrid it is cut into a warmup generation of hybridWarmup configs
	// (all escalated, seeding the residual forests) and refresh generations
	// of hybridRefresh. A batch source's batches are its generations, the
	// first doubling as the hybrid's warmup. Batch g owns the contiguous
	// indices [base, base+len(batch)); the proposer sees exactly the rows
	// with Index < base — all complete earlier batches, sorted by index —
	// which is what makes the proposal sequence a pure function of (source
	// state, prior results), independent of worker count and resume point.
	genSize, nextSize := len(todo), len(todo)
	if ev.hybrid != nil {
		genSize, nextSize = hybridWarmup, hybridRefresh
	}
	var rows []Row
	if batchMode {
		rows = append(rows, e.Prior...)
		sortRowsByIndex(rows)
	}
	base := 0
	var ctxErr error
feed:
	for gen := 0; ; gen++ {
		var idx []int
		var batch []params.Config
		if batchMode {
			cut := 0
			for cut < len(rows) && rows[cut].Index < base {
				cut++
			}
			barrierT0 := time.Now()
			var ok bool
			batch, ok = e.Batches.NextBatch(rows[:cut:cut])
			barrierNanos := time.Since(barrierT0).Nanoseconds()
			if !ok || len(batch) == 0 {
				break
			}
			var bstats BatchStats
			if bs, hasStats := e.Batches.(BatchStatsSource); hasStats {
				bstats = bs.LastBatchStats()
			}
			tel.searchBarrierDone(gen, barrierNanos, bstats)
			for i := base; i < base+len(batch); i++ {
				if !skip(i) {
					idx = append(idx, i)
				}
			}
			mu.Lock()
			total = max(total-(len(batch)-len(idx)), 0)
			mu.Unlock()
		} else {
			if len(todo) == 0 {
				break
			}
			n := min(genSize, len(todo))
			idx, todo, genSize = todo[:n], todo[n:], nextSize
		}
		if gen > 0 {
			ev.refit()
		}
		var pending sync.WaitGroup
		for _, i := range idx {
			mu.Lock()
			aborted := sinkErr != nil
			mu.Unlock()
			if aborted {
				break feed
			}
			// The select below picks at random between a ready worker and
			// a closed Done channel, so a cancelled run must be caught
			// before the configuration is derived.
			if ctxErr = ctx.Err(); ctxErr != nil {
				break feed
			}
			j := job{idx: i, pending: &pending}
			if batchMode {
				j.gen, j.cfg = gen, batch[i-base]
			} else {
				j.cfg = e.Source.At(i)
			}
			pending.Add(1)
			select {
			case jobs <- j:
			case <-ctx.Done():
				pending.Done()
				ctxErr = ctx.Err()
				break feed
			}
		}
		pending.Wait()
		if batchMode {
			base += len(batch)
			mu.Lock()
			rows = append(rows, batchRows...)
			batchRows = nil
			mu.Unlock()
			sortRowsByIndex(rows)
		}
	}
	close(jobs)
	wg.Wait()

	if sinkErr != nil {
		return done, failed, sinkErr
	}
	return done, failed, ctxErr
}

// sortRowsByIndex orders rows by their global index — the canonical order
// the batch feed presents prior results in.
func sortRowsByIndex(rows []Row) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Index < rows[j].Index })
}

// evalRow is the worker stage: evaluate configuration i through the
// worker's evaluator and build its Row — the one place rows are made.
func evalRow(ew *EvalWorker, suite []workload.Workload, i int, cfg params.Config) Row {
	res, err := ew.Evaluate(suite, i, cfg)
	row := Row{Index: i, Config: cfg, Features: cfg.Features(), Err: err,
		Predicted: res.Predicted, Confidence: res.Confidence}
	for _, st := range res.Stats {
		row.Cycles += st.Cycles
	}
	if err != nil {
		return row
	}
	row.Targets = make(map[string]float64, len(suite))
	row.Stalls = make(map[string]simeng.StallBreakdown, len(suite))
	for ai, w := range suite {
		row.Targets[w.Name()] = float64(res.Stats[ai].Cycles)
		row.Stalls[w.Name()] = res.Stats[ai].Stalls
	}
	return row
}

// SuiteNames returns the application names of a workload suite, in order —
// the target column set of a collection over that suite.
func SuiteNames(suite []workload.Workload) []string {
	names := make([]string, len(suite))
	for i, w := range suite {
		names[i] = w.Name()
	}
	return names
}
