package orchestrate

import (
	"errors"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"armdse/internal/obs"
	"armdse/internal/simeng"
	"armdse/internal/workload"
)

// Telemetry is the collection engine's observability hub: it owns the metric
// handles the engine records into (per-app run timings, stall-class
// aggregates, progcache and pool reuse, sweep progress gauges), the
// structured JSONL run journal, and the live status view behind the sweep
// monitor's JSON endpoint.
//
// All engine-facing methods are nil-receiver-safe, so an untelemetered run
// pays nothing but a nil check per hook. On the hot path every record is
// atomic adds into the worker's own metric shard plus (per config, not per
// app) one hand-encoded journal line through a reused buffer — no
// allocation at steady state, which is what the instrumented variant of
// TestPooledRunSteadyStateAllocs pins.
//
// Telemetry is purely observational: it reads run outcomes and never feeds
// anything back into simulation, so enabling it cannot change dataset bytes.
type Telemetry struct {
	reg     *obs.Registry
	journal *obs.Journal

	// HeartbeatEvery spaces journal heartbeat records; zero uses 5s.
	HeartbeatEvery time.Duration

	// Bound at Engine.Run start (bind); engine workers index apps and
	// scratch by suite position and worker id.
	appNames   []string
	apps       []appHandles
	configs    *obs.Counter
	configFail *obs.Counter
	configWall *obs.Histogram
	sinkWall   *obs.Histogram
	progHits   *obs.Counter
	progMisses *obs.Counter
	progBuild  *obs.Histogram
	poolBuilds *obs.Counter
	poolReuses *obs.Counter
	journLines *obs.Gauge
	journBytes *obs.Gauge

	gDone    *obs.Gauge
	gFailed  *obs.Gauge
	gTotal   *obs.Gauge
	gElapsed *obs.Gauge
	gETA     *obs.Gauge
	gRPS     *obs.Gauge
	gCycles  *obs.Gauge

	// Evaluator-seam handles, bound only for non-exact runs (bindEval).
	evalPredicted *obs.Counter
	evalEscalated *obs.Counter
	evalRefreshes *obs.Counter
	evalTrainRows *obs.Gauge

	// Search-seam handles, bound only for batch-source runs (bindBatchMode).
	searchBarrier *obs.Histogram
	searchScored  *obs.Counter
	gGen          *obs.Gauge

	scratch []workerScratch

	total     int
	startedAt time.Time
	// emitGen adds the proposal-generation tag to config records; bound
	// true only for batch-source runs so fixed-sweep runlogs stay
	// byte-identical.
	emitGen bool

	// mu guards the slowest-config table, the journal encode buffer and the
	// heartbeat clock.
	mu     sync.Mutex
	slow   []SlowConfig
	jbuf   []byte
	lastHB time.Time
}

// appHandles are one application's metric handles, index-parallel to the
// engine's suite.
type appHandles struct {
	runs       *obs.Counter
	failures   *obs.Counter
	budgetHits *obs.Counter
	wall       *obs.Histogram
	cycles     *obs.Histogram
	stalls     [simeng.NumStallClasses]*obs.Counter
	l1Misses   *obs.Counter
	l2Misses   *obs.Counter
	ramReads   *obs.Counter
}

// workerScratch is one worker's per-config staging area for the journal
// record: per-app wall/cycles/stalls land here as each app finishes and are
// encoded once when the config completes. Owned by exactly one worker; done
// is atomic only because the status endpoint reads it concurrently.
type workerScratch struct {
	n    int
	apps []appRunRecord
	done atomic.Int64
	// eval stages the config's routing decision for the journal record:
	// 0 = exact run (no field emitted), 1 = predicted, 2 = escalated.
	eval       int8
	confidence float64
}

// appRunRecord is one (config, app) run outcome staged for the journal.
type appRunRecord struct {
	wallNs int64
	cycles int64
	stalls simeng.StallBreakdown
}

// SlowConfig identifies one of the sweep's slowest configurations so far.
type SlowConfig struct {
	Index  int     `json:"index"`
	WallMs float64 `json:"wall_ms"`
	Cycles int64   `json:"cycles"`
	Failed bool    `json:"failed,omitempty"`
}

// WorkerProgress is one worker's completed-config count.
type WorkerProgress struct {
	Worker int   `json:"worker"`
	Done   int64 `json:"done"`
}

// SweepStatus is the live JSON status view of a running collection — the
// /status endpoint's payload.
type SweepStatus struct {
	Done       int     `json:"done"`
	Failed     int     `json:"failed"`
	Total      int     `json:"total"`
	ElapsedSec float64 `json:"elapsed_s"`
	ETASec     float64 `json:"eta_s"`
	RowsPerSec float64 `json:"rows_per_sec"`
	Cycles     int64   `json:"cycles"`
	// Gen is the current proposal generation of an adaptive run (0 for
	// fixed sweeps, which never bind the search gauges).
	Gen     int              `json:"gen,omitempty"`
	Workers []WorkerProgress `json:"workers,omitempty"`
	Slowest []SlowConfig     `json:"slowest,omitempty"`
	// ConfigWallMs and SinkPutMs summarise the per-config wall-time and
	// row-sink Put latency distributions, interpolated from the log2
	// histogram buckets; absent until the first observation lands.
	ConfigWallMs *LatencyQuantiles `json:"config_wall_ms,omitempty"`
	SinkPutMs    *LatencyQuantiles `json:"sink_put_ms,omitempty"`
}

// LatencyQuantiles is the p50/p90/p99 triplet of a nanosecond histogram,
// reported in milliseconds for /status readability.
type LatencyQuantiles struct {
	Count int64   `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// latencyOf summarises a nanosecond histogram, or nil when it has no
// observations yet (so the JSON field disappears rather than reading 0).
func latencyOf(h *obs.Histogram) *LatencyQuantiles {
	n := h.Count()
	if n == 0 {
		return nil
	}
	return &LatencyQuantiles{
		Count: n,
		P50Ms: h.Quantile(0.50) / 1e6,
		P90Ms: h.Quantile(0.90) / 1e6,
		P99Ms: h.Quantile(0.99) / 1e6,
	}
}

// slowK bounds the slowest-config table.
const slowK = 8

// NewTelemetry wires a telemetry hub over an optional metrics registry and
// an optional run journal (either may be nil).
func NewTelemetry(reg *obs.Registry, journal *obs.Journal) *Telemetry {
	return &Telemetry{reg: reg, journal: journal}
}

// Registry returns the hub's metrics registry (nil-safe) — the argument for
// obs.Handler.
func (t *Telemetry) Registry() *obs.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// bind creates the run's metric handles and scratch space. Called by
// Engine.Run once the suite, worker count and todo size are known; safe to
// call again for a second run on the same hub (handles are registry-cached).
func (t *Telemetry) bind(suite []workload.Workload, workers, total int, start time.Time) {
	if t == nil {
		return
	}
	r := t.reg
	t.appNames = SuiteNames(suite)
	t.apps = make([]appHandles, len(suite))
	classes := simeng.StallClassNames()
	for i, name := range t.appNames {
		app := obs.L("app", name)
		h := &t.apps[i]
		h.runs = r.Counter("armdse_runs_total", "Completed (config, app) simulations.", app)
		h.failures = r.Counter("armdse_run_failures_total", "Simulations dropped by the validation gate.", app)
		h.budgetHits = r.Counter("armdse_run_budget_hits_total", "Simulations aborted by the per-run cycle budget.", app)
		h.wall = r.Histogram("armdse_run_wall_nanoseconds", "Wall time per (config, app) simulation.", app)
		h.cycles = r.Histogram("armdse_run_cycles", "Simulated cycles per (config, app) run.", app)
		for c, class := range classes {
			h.stalls[c] = r.Counter("armdse_stall_cycles_total",
				"Simulated cycles attributed to each stall class.", app, obs.L("class", class))
		}
		h.l1Misses = r.Counter("armdse_mem_l1_misses_total", "L1 misses reported by the memory backend.", app)
		h.l2Misses = r.Counter("armdse_mem_l2_misses_total", "L2 misses reported by the memory backend.", app)
		h.ramReads = r.Counter("armdse_mem_ram_reads_total", "RAM line reads reported by the memory backend.", app)
	}
	t.configs = r.Counter("armdse_configs_total", "Completed configurations (full suite), including failed ones.")
	t.configFail = r.Counter("armdse_config_failures_total", "Configurations dropped by the validation gate.")
	t.configWall = r.Histogram("armdse_config_wall_nanoseconds", "Wall time per configuration (full suite).")
	t.sinkWall = r.Histogram("armdse_sink_put_nanoseconds", "Wall time per row-sink Put (journal append).")
	t.progHits = r.Counter("armdse_progcache_hits_total", "Program-cache lookups answered by a cached program.")
	t.progMisses = r.Counter("armdse_progcache_misses_total", "Program-cache lookups that built a new program.")
	t.progBuild = r.Histogram("armdse_program_build_nanoseconds", "Wall time per program build.")
	t.poolBuilds = r.Counter("armdse_pool_builds_total", "Pooled run contexts constructed (first run per worker).")
	t.poolReuses = r.Counter("armdse_pool_reuse_total", "Runs served by a reset-in-place pooled core/backend.")
	t.journLines = r.Gauge("armdse_runlog_lines", "Lines written to the JSONL run journal.")
	t.journBytes = r.Gauge("armdse_runlog_bytes", "Bytes written to the JSONL run journal.")
	t.gDone = r.Gauge("armdse_sweep_done", "Configurations finished so far.")
	t.gFailed = r.Gauge("armdse_sweep_failed", "Configurations failed so far.")
	t.gTotal = r.Gauge("armdse_sweep_total", "Configurations this run will attempt.")
	t.gElapsed = r.Gauge("armdse_sweep_elapsed_seconds", "Wall time since the run started.")
	t.gETA = r.Gauge("armdse_sweep_eta_seconds", "Estimated wall time to completion.")
	t.gRPS = r.Gauge("armdse_sweep_rows_per_second", "Mean configuration completion rate.")
	t.gCycles = r.Gauge("armdse_sweep_cycles_total", "Total core cycles simulated so far.")

	t.scratch = make([]workerScratch, workers)
	for w := range t.scratch {
		t.scratch[w].apps = make([]appRunRecord, len(suite))
	}
	t.total = total
	t.startedAt = start
	t.gTotal.SetInt(int64(total))
	t.mu.Lock()
	t.slow = t.slow[:0]
	t.lastHB = start
	t.mu.Unlock()
}

// bindBatchMode switches config records to carry the proposal-generation
// tag and creates the search-seam handles. Called by Engine.Run alongside
// bind; fixed sweeps register nothing, keeping their metric surface
// identical to pre-seam engines.
func (t *Telemetry) bindBatchMode(batch bool) {
	if t == nil {
		return
	}
	t.emitGen = batch
	if !batch {
		return
	}
	r := t.reg
	t.searchBarrier = r.TimeHistogram("armdse_search_barrier_seconds",
		"Wall time per generation barrier: proposal, surrogate refit and candidate-pool scoring while simulation workers idle.")
	t.searchScored = r.Counter("armdse_search_pool_scored_total",
		"Candidate configurations generated and scored by the acquisition model.")
	t.gGen = r.Gauge("armdse_search_generation", "Current proposal generation of the adaptive run.")
}

// searchBarrierDone records one generation barrier: the NextBatch wall time
// into the barrier histogram, the pool size into the scored counter, the
// generation gauge, and a `barrier` journal record carrying the proposer's
// cost breakdown (warm-refit vs scoring split, trees retrained vs retained).
func (t *Telemetry) searchBarrierDone(gen int, wallNs int64, stats BatchStats) {
	if t == nil || !t.emitGen {
		return
	}
	t.searchBarrier.Observe(0, wallNs)
	t.searchScored.Add(0, int64(stats.PoolScored))
	t.gGen.SetInt(int64(gen))
	_ = t.journal.WriteRecord(obs.BarrierRecord{
		Type: "barrier", Gen: gen, WallMs: obs.Round3(float64(wallNs) / 1e6), PoolScored: stats.PoolScored,
		RefitMs: obs.Round3(float64(stats.RefitNanos) / 1e6), ScoreMs: obs.Round3(float64(stats.ScoreNanos) / 1e6),
		TreesRetrained: stats.TreesRetrained, TreesRetained: stats.TreesRetained,
	})
}

// bindEval creates the evaluator-seam handles for a non-exact run. Called
// by Engine.Run after bind; exact runs register nothing, keeping their
// metric surface identical to pre-seam engines.
func (t *Telemetry) bindEval(kind string) {
	if t == nil || kind == "" || kind == EvalExact {
		return
	}
	r := t.reg
	t.evalPredicted = r.Counter("armdse_eval_predicted_total", "Configurations answered by the analytical/learned fast path.")
	t.evalEscalated = r.Counter("armdse_eval_escalated_total", "Configurations escalated to exact simulation by the hybrid router.")
	t.evalRefreshes = r.Counter("armdse_eval_refreshes_total", "Residual-forest refreshes at hybrid generation barriers.")
	t.evalTrainRows = r.Gauge("armdse_eval_residual_rows", "Training observations fitted at the latest residual refresh.")
}

// evalDecision records one configuration's routing outcome (predicted vs
// escalated) and stages it for the journal record. Must be called after
// beginConfig's reset — i.e. after the chosen run path has staged its apps.
func (t *Telemetry) evalDecision(worker int, predicted bool, confidence float64) {
	if t == nil {
		return
	}
	s := &t.scratch[worker]
	if predicted {
		t.evalPredicted.Inc(worker)
		s.eval, s.confidence = 1, confidence
	} else {
		t.evalEscalated.Inc(worker)
		s.eval, s.confidence = 2, 0
	}
}

// evalRefresh records one hybrid residual refresh and the size of the
// training set it fitted.
func (t *Telemetry) evalRefresh(trainRows int64) {
	if t == nil {
		return
	}
	t.evalRefreshes.Inc(0)
	t.evalTrainRows.SetInt(trainRows)
}

// beginConfig resets the worker's per-config staging area.
func (t *Telemetry) beginConfig(worker int) {
	if t == nil {
		return
	}
	t.scratch[worker].n = 0
	t.scratch[worker].eval = 0
}

// appRun records one (config, app) simulation outcome: counters, histograms,
// stall-class and memory-backend aggregates, plus the journal staging slot.
// Runs on the hot path — atomics only, no allocation.
func (t *Telemetry) appRun(worker, appIdx int, wallNs int64, st simeng.Stats, err error) {
	if t == nil {
		return
	}
	h := &t.apps[appIdx]
	h.runs.Inc(worker)
	h.wall.Observe(worker, wallNs)
	h.cycles.Observe(worker, st.Cycles)
	if err != nil {
		h.failures.Inc(worker)
		if errors.Is(err, simeng.ErrCycleLimit) {
			h.budgetHits.Inc(worker)
		}
	}
	for c := 0; c < int(simeng.NumStallClasses); c++ {
		if v := st.Stalls[c]; v != 0 {
			h.stalls[c].Add(worker, v)
		}
	}
	h.l1Misses.Add(worker, st.Mem.L1Misses)
	h.l2Misses.Add(worker, st.Mem.L2Misses)
	h.ramReads.Add(worker, st.Mem.RAMReads)

	s := &t.scratch[worker]
	if s.n < len(s.apps) {
		s.apps[s.n] = appRunRecord{wallNs: wallNs, cycles: st.Cycles, stalls: st.Stalls}
		s.n++
	}
}

// poolEvent records whether a run reused the worker's pooled context or
// built it.
func (t *Telemetry) poolEvent(worker int, reused bool) {
	if t == nil {
		return
	}
	if reused {
		t.poolReuses.Inc(worker)
	} else {
		t.poolBuilds.Inc(worker)
	}
}

// sinkHist returns the sink-put histogram handle (nil-safe) for span timing.
func (t *Telemetry) sinkHist() *obs.Histogram {
	if t == nil {
		return nil
	}
	return t.sinkWall
}

// configDone records a completed configuration: whole-config metrics, the
// slowest-config table, and one journal record.
func (t *Telemetry) configDone(worker int, row *Row, wallNs int64) {
	if t == nil {
		return
	}
	t.configs.Inc(worker)
	if row.Failed() {
		t.configFail.Inc(worker)
	}
	t.configWall.Observe(worker, wallNs)
	t.scratch[worker].done.Add(1)

	t.mu.Lock()
	t.noteSlow(row.Index, wallNs, row.Cycles, row.Failed())
	if t.journal != nil {
		t.jbuf = appendConfigRecord(t.jbuf[:0], t.appNames, &t.scratch[worker], row, wallNs, t.emitGen)
		_ = t.journal.WriteLine(t.jbuf)
	}
	t.mu.Unlock()
}

// noteSlow inserts the run into the slowest-config table if it qualifies.
// Caller holds mu.
func (t *Telemetry) noteSlow(index int, wallNs, cycles int64, failed bool) {
	e := SlowConfig{Index: index, WallMs: float64(wallNs) / 1e6, Cycles: cycles, Failed: failed}
	if len(t.slow) < slowK {
		t.slow = append(t.slow, e)
		return
	}
	min := 0
	for i := 1; i < len(t.slow); i++ {
		if t.slow[i].WallMs < t.slow[min].WallMs {
			min = i
		}
	}
	if e.WallMs > t.slow[min].WallMs {
		t.slow[min] = e
	}
}

// progress publishes the sweep gauges and spaces journal heartbeats. The
// engine serialises calls (it invokes progress under its completion lock).
func (t *Telemetry) progress(ev ProgressEvent) {
	if t == nil {
		return
	}
	t.gDone.SetInt(int64(ev.Done))
	t.gFailed.SetInt(int64(ev.Failed))
	t.gElapsed.Set(ev.Elapsed.Seconds())
	t.gETA.Set(ev.ETA.Seconds())
	t.gRPS.Set(ev.RowsPerSec)
	t.gCycles.SetInt(ev.Cycles)
	if t.journal == nil {
		return
	}
	every := t.HeartbeatEvery
	if every <= 0 {
		every = 5 * time.Second
	}
	t.mu.Lock()
	if time.Since(t.lastHB) >= every || ev.Done == ev.Total {
		t.lastHB = time.Now()
		_ = t.journal.WriteRecord(obs.HeartbeatRecord{
			Type: "heartbeat", ElapsedS: obs.Round3(ev.Elapsed.Seconds()),
			Done: ev.Done, Failed: ev.Failed, Total: ev.Total,
			RowsPerSec: obs.Round3(ev.RowsPerSec), ETAS: obs.Round3(ev.ETA.Seconds()), Cycles: ev.Cycles,
		})
		lines, bytes := t.journal.Stats()
		t.journLines.SetInt(lines)
		t.journBytes.SetInt(bytes)
	}
	t.mu.Unlock()
}

// Status builds the live sweep-status view served by the monitor endpoint.
func (t *Telemetry) Status() SweepStatus {
	if t == nil {
		return SweepStatus{}
	}
	st := SweepStatus{
		Done:         int(t.gDone.Value()),
		Failed:       int(t.gFailed.Value()),
		Total:        t.total,
		ElapsedSec:   t.gElapsed.Value(),
		ETASec:       t.gETA.Value(),
		RowsPerSec:   t.gRPS.Value(),
		Cycles:       int64(t.gCycles.Value()),
		Gen:          int(t.gGen.Value()),
		ConfigWallMs: latencyOf(t.configWall),
		SinkPutMs:    latencyOf(t.sinkWall),
	}
	for w := range t.scratch {
		st.Workers = append(st.Workers, WorkerProgress{Worker: w, Done: t.scratch[w].done.Load()})
	}
	t.mu.Lock()
	st.Slowest = append(st.Slowest, t.slow...)
	t.mu.Unlock()
	sort.Slice(st.Slowest, func(i, j int) bool { return st.Slowest[i].WallMs > st.Slowest[j].WallMs })
	return st
}

// StatusAny adapts Status to obs.Handler's func() any parameter, staying
// nil-safe so `obs.Handler(reg, tel.StatusAny)` works on a nil hub.
func (t *Telemetry) StatusAny() any { return t.Status() }

// JournalMeta writes the journal's header record identifying the run: seed,
// index-space size, resolved worker count, the rows the collection journal
// held when the run started (0 on a fresh run), the adaptive proposer's
// digest (empty for a fixed sweep), application order and the stall-class
// taxonomy the per-config stall arrays are indexed by.
func (t *Telemetry) JournalMeta(seed int64, samples, workers, resumed int, search string, apps []string) error {
	if t == nil {
		return nil
	}
	return t.journal.WriteRecord(obs.MetaRecord{
		Type: "meta", Version: 1, Seed: seed, Samples: samples, Workers: workers,
		Resumed: resumed, Search: search, Apps: apps, StallClasses: simeng.StallClassNames(),
	})
}

// JournalSummary writes the run's final record: dataset rows kept, failed
// configs, total wall time and the journal's own size statistics.
func (t *Telemetry) JournalSummary(rows, failed int, elapsed time.Duration) error {
	if t == nil {
		return nil
	}
	lines, bytes := t.journal.Stats()
	return t.journal.WriteRecord(obs.SummaryRecord{
		Type: "summary", Rows: rows, Failed: failed, ElapsedS: obs.Round3(elapsed.Seconds()),
		JournalLines: lines, JournalBytes: bytes,
	})
}

// appendConfigRecord hand-encodes one per-config journal line. Field order
// is fixed and apps appear in suite order, so records are deterministic and
// schema-checkable; encoding appends into the caller's reused buffer.
func appendConfigRecord(b []byte, appNames []string, s *workerScratch, row *Row, wallNs int64, emitGen bool) []byte {
	b = append(b, `{"type":"config","index":`...)
	b = strconv.AppendInt(b, int64(row.Index), 10)
	if emitGen {
		b = append(b, `,"gen":`...)
		b = strconv.AppendInt(b, int64(row.Gen), 10)
	}
	b = append(b, `,"wall_ms":`...)
	b = appendFloat(b, float64(wallNs)/1e6)
	b = append(b, `,"cycles":`...)
	b = strconv.AppendInt(b, row.Cycles, 10)
	b = append(b, `,"failed":`...)
	b = strconv.AppendBool(b, row.Failed())
	if row.Err != nil {
		b = append(b, `,"err":`...)
		b = appendJSONString(b, row.Err.Error())
	}
	switch s.eval {
	case 1:
		b = append(b, `,"eval":"predicted","confidence":`...)
		b = appendFloat(b, s.confidence)
	case 2:
		b = append(b, `,"eval":"escalated"`...)
	}
	b = append(b, `,"apps":[`...)
	for i := 0; i < s.n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		r := &s.apps[i]
		b = append(b, `{"app":`...)
		b = appendJSONString(b, appNames[i])
		b = append(b, `,"wall_ms":`...)
		b = appendFloat(b, float64(r.wallNs)/1e6)
		b = append(b, `,"cycles":`...)
		b = strconv.AppendInt(b, r.cycles, 10)
		b = append(b, `,"stalls":[`...)
		for c := 0; c < int(simeng.NumStallClasses); c++ {
			if c > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, r.stalls[c], 10)
		}
		b = append(b, `]}`...)
	}
	b = append(b, `]}`...)
	return b
}

// appendFloat renders a finite float with three decimals (JSON has no
// Inf/NaN; the config record only carries milliseconds and confidences).
func appendFloat(b []byte, v float64) []byte {
	if v != v || v > 1e18 || v < -1e18 { // NaN or absurd: clamp to 0
		v = 0
	}
	return strconv.AppendFloat(b, v, 'f', 3, 64)
}

// appendJSONString renders a JSON string literal with minimal escaping
// (quotes, backslashes, control characters; invalid UTF-8 bytes are
// replaced), allocation-free into the caller's buffer.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '"':
			b = append(b, '\\', '"')
			i++
		case c == '\\':
			b = append(b, '\\', '\\')
			i++
		case c == '\n':
			b = append(b, '\\', 'n')
			i++
		case c == '\t':
			b = append(b, '\\', 't')
			i++
		case c == '\r':
			b = append(b, '\\', 'r')
			i++
		case c < 0x20:
			b = append(b, '\\', 'u', '0', '0', hexDigit(c>>4), hexDigit(c&0xf))
			i++
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				b = append(b, 0xEF, 0xBF, 0xBD) // U+FFFD
				i++
				continue
			}
			b = append(b, s[i:i+size]...)
			i += size
		}
	}
	return append(b, '"')
}

func hexDigit(v byte) byte {
	if v < 10 {
		return '0' + v
	}
	return 'a' + v - 10
}
