package orchestrate

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"armdse/internal/obs"
	"armdse/internal/params"
	"armdse/internal/simeng"
)

// TestTelemetryCollect drives a small collection through a fully wired hub
// and checks the metric families, the live status view, and every journal
// record shape.
func TestTelemetryCollect(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := obs.CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry(2)
	tel := NewTelemetry(reg, j)
	tel.HeartbeatEvery = time.Nanosecond // heartbeat on every progress event

	suite := tinySuite()
	opt := Options{Seed: 11, Samples: 6, Workers: 2, Suite: suite, Telemetry: tel}
	if err := tel.JournalMeta(opt.Seed, opt.Samples, opt.Workers, 0, "", SuiteNames(suite)); err != nil {
		t.Fatal(err)
	}
	res, err := Collect(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := tel.JournalSummary(res.Data.Len(), res.Failed, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Metrics: every app ran every config; stall cycles sum to total cycles;
	// two workers build their pooled context once each and reuse afterwards.
	totals := map[string]int64{}
	var cycleSum int64
	for _, f := range reg.Snapshot().Families {
		for _, s := range f.Series {
			totals[f.Name] += int64(s.Value)
			if f.Name == "armdse_run_cycles" {
				cycleSum += s.Sum
			}
		}
	}
	runs := totals["armdse_runs_total"]
	if want := int64(6 * len(suite)); runs != want {
		t.Errorf("runs_total = %d, want %d", runs, want)
	}
	if got := totals["armdse_configs_total"]; got != 6 {
		t.Errorf("configs_total = %d, want 6", got)
	}
	if got := totals["armdse_stall_cycles_total"]; got != cycleSum || got == 0 {
		t.Errorf("stall cycles %d != run cycles %d (attribution must tile)", got, cycleSum)
	}
	builds, reuses := totals["armdse_pool_builds_total"], totals["armdse_pool_reuse_total"]
	if builds != 2 || reuses != runs-2 {
		t.Errorf("pool builds/reuses = %d/%d, want 2/%d", builds, reuses, runs-2)
	}

	// Status view.
	st := tel.Status()
	if st.Done != 6 || st.Total != 6 || st.ElapsedSec <= 0 || st.RowsPerSec <= 0 {
		t.Errorf("status = %+v", st)
	}
	var workerDone int64
	for _, w := range st.Workers {
		workerDone += w.Done
	}
	if workerDone != 6 {
		t.Errorf("per-worker done sums to %d, want 6", workerDone)
	}
	if len(st.Slowest) == 0 || st.Slowest[0].WallMs < st.Slowest[len(st.Slowest)-1].WallMs {
		t.Errorf("slowest table not sorted descending: %+v", st.Slowest)
	}
	// Latency quantiles: every config observed once, estimates ordered and
	// in plausible wall-clock range.
	cw := st.ConfigWallMs
	if cw == nil || cw.Count != 6 {
		t.Fatalf("config wall quantiles = %+v, want count 6", cw)
	}
	if cw.P50Ms <= 0 || cw.P50Ms > cw.P90Ms || cw.P90Ms > cw.P99Ms {
		t.Errorf("config wall quantiles not ordered: %+v", cw)
	}
	if sp := st.SinkPutMs; sp == nil || sp.Count != 6 || sp.P50Ms > sp.P99Ms {
		t.Errorf("sink put quantiles = %+v", sp)
	}

	// Journal: one meta, one summary, 6 configs, >= 1 heartbeat; every line
	// parses and carries its type's required fields.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	counts := map[string]int{}
	sc := bufio.NewScanner(f)
	var first, last string
	for sc.Scan() {
		line := sc.Text()
		if first == "" {
			first = line
		}
		last = line
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line does not parse: %v\n%s", err, line)
		}
		typ, _ := rec["type"].(string)
		counts[typ]++
		switch typ {
		case "meta":
			if rec["seed"].(float64) != 11 || len(rec["apps"].([]any)) != len(suite) {
				t.Errorf("meta record: %s", line)
			}
			if len(rec["stall_classes"].([]any)) != int(simeng.NumStallClasses) {
				t.Errorf("meta stall classes: %s", line)
			}
		case "config":
			apps := rec["apps"].([]any)
			if len(apps) != len(suite) {
				t.Errorf("config record has %d apps, want %d", len(apps), len(suite))
			}
			for _, a := range apps {
				am := a.(map[string]any)
				if len(am["stalls"].([]any)) != int(simeng.NumStallClasses) {
					t.Errorf("config app stalls: %s", line)
				}
				if am["cycles"].(float64) <= 0 {
					t.Errorf("config app cycles: %s", line)
				}
			}
		case "heartbeat":
			if rec["total"].(float64) != 6 {
				t.Errorf("heartbeat record: %s", line)
			}
		case "summary":
			if int(rec["rows"].(float64)) != res.Data.Len() {
				t.Errorf("summary record: %s", line)
			}
		default:
			t.Errorf("unknown record type %q: %s", typ, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if counts["meta"] != 1 || counts["summary"] != 1 || counts["config"] != 6 || counts["heartbeat"] < 1 {
		t.Errorf("record counts = %v", counts)
	}
	if !strings.Contains(first, `"type":"meta"`) || !strings.Contains(last, `"type":"summary"`) {
		t.Errorf("journal not bracketed by meta/summary: first %q last %q", first, last)
	}
}

// statsBatches is a scripted batch source that also reports barrier costs,
// standing in for the search proposer's BatchStatsSource side.
type statsBatches struct {
	scriptedBatches
	stats BatchStats
}

func (s *statsBatches) LastBatchStats() BatchStats { return s.stats }

// TestSearchBarrierTelemetry drives a batch-source run through a wired hub
// and checks the search-seam surface: the seconds-scaled barrier histogram,
// the pool-scored counter, the generation gauge in /status, and the
// `barrier` journal records with the proposer's cost breakdown.
func TestSearchBarrierTelemetry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := obs.CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry(2)
	tel := NewTelemetry(reg, j)

	var cfgs []params.Config
	for i := 0; i < 6; i++ {
		cfgs = append(cfgs, params.ConfigAt(5, i))
	}
	src := &statsBatches{
		scriptedBatches: scriptedBatches{batches: [][]params.Config{cfgs[:3], cfgs[3:]}},
		stats: BatchStats{
			PoolScored: 40, RefitNanos: 2e6, ScoreNanos: 3e6,
			TreesRetrained: 5, TreesRetained: 15,
		},
	}
	if _, err := Collect(context.Background(), Options{
		Suite: tinySuite(), Workers: 2, Batches: src, Telemetry: tel,
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var barrierFam *obs.FamilySnapshot
	var scored int64
	for _, f := range reg.Snapshot().Families {
		f := f
		if f.Name == "armdse_search_barrier_seconds" {
			barrierFam = &f
		}
		if f.Name == "armdse_search_pool_scored_total" {
			scored = int64(f.Series[0].Value)
		}
	}
	if barrierFam == nil {
		t.Fatal("armdse_search_barrier_seconds not registered")
	}
	if barrierFam.Scale != obs.TimeScale {
		t.Errorf("barrier histogram scale = %g, want %g", barrierFam.Scale, float64(obs.TimeScale))
	}
	// Two proposed batches → two barrier observations (the exhausted third
	// call records nothing).
	if got := barrierFam.Series[0].Count; got != 2 {
		t.Errorf("barrier observations = %d, want 2", got)
	}
	if scored != 80 {
		t.Errorf("pool_scored_total = %d, want 80", scored)
	}
	if got := tel.Status().Gen; got != 1 {
		t.Errorf("status gen = %d, want 1", got)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	barriers := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line does not parse: %v\n%s", err, line)
		}
		if rec["type"] != "barrier" {
			continue
		}
		if rec["gen"].(float64) != float64(barriers) {
			t.Errorf("barrier gen = %v, want %d", rec["gen"], barriers)
		}
		if rec["pool_scored"].(float64) != 40 ||
			rec["refit_ms"].(float64) != 2 || rec["score_ms"].(float64) != 3 ||
			rec["trees_retrained"].(float64) != 5 || rec["trees_retained"].(float64) != 15 {
			t.Errorf("barrier record fields: %s", line)
		}
		if _, ok := rec["wall_ms"]; !ok {
			t.Errorf("barrier record missing wall_ms: %s", line)
		}
		barriers++
	}
	if barriers != 2 {
		t.Errorf("journal has %d barrier records, want 2", barriers)
	}
}

// TestTelemetryDoesNotPerturbDataset is the in-process half of the
// byte-identity contract: the same collection with and without a fully wired
// hub must produce identical rows.
func TestTelemetryDoesNotPerturbDataset(t *testing.T) {
	opt := Options{Seed: 21, Samples: 4, Workers: 2, Suite: tinySuite()}
	bare, err := Collect(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	j, err := obs.CreateJournal(filepath.Join(t.TempDir(), "run.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	opt.Telemetry = NewTelemetry(obs.NewRegistry(2), j)
	inst, err := Collect(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Data.Len() != inst.Data.Len() {
		t.Fatalf("row counts differ: %d vs %d", bare.Data.Len(), inst.Data.Len())
	}
	for r := range bare.Data.X {
		for c := range bare.Data.X[r] {
			if bare.Data.X[r][c] != inst.Data.X[r][c] {
				t.Fatalf("X[%d][%d] differs with telemetry on", r, c)
			}
		}
		for _, app := range bare.Data.Apps {
			if bare.Data.Y[app][r] != inst.Data.Y[app][r] {
				t.Fatalf("Y[%s][%d] differs with telemetry on", app, r)
			}
		}
	}
}

// TestProgressElapsedETA pins the engine-computed Elapsed/ETA fields: Elapsed
// is monotonic, ETA is zero on the final event and positive before it.
func TestProgressElapsedETA(t *testing.T) {
	var events []ProgressEvent
	_, err := Collect(context.Background(), Options{
		Seed: 31, Samples: 5, Workers: 1, Suite: tinySuite(),
		Progress: func(ev ProgressEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("events = %d", len(events))
	}
	for i, ev := range events {
		if i > 0 && ev.Elapsed < events[i-1].Elapsed {
			t.Errorf("Elapsed not monotonic at %d: %v < %v", i, ev.Elapsed, events[i-1].Elapsed)
		}
		if ev.Done < ev.Total && ev.ETA <= 0 {
			t.Errorf("event %d: ETA = %v, want > 0 mid-run", i, ev.ETA)
		}
	}
	if last := events[len(events)-1]; last.ETA != 0 {
		t.Errorf("final ETA = %v, want 0", last.ETA)
	}
}

// TestNilTelemetryHooks drives every engine-facing hook on a nil hub — the
// untelemetered path must be a pure no-op.
func TestNilTelemetryHooks(t *testing.T) {
	var tel *Telemetry
	tel.bind(tinySuite(), 1, 10, time.Now())
	tel.beginConfig(0)
	tel.appRun(0, 0, 1, simeng.Stats{}, nil)
	tel.poolEvent(0, true)
	tel.sinkHist().Observe(0, 1)
	tel.configDone(0, &Row{}, 1)
	tel.progress(ProgressEvent{})
	if tel.Registry() != nil {
		t.Error("nil hub returned a registry")
	}
	if st := tel.Status(); st.Total != 0 {
		t.Error("nil hub returned non-zero status")
	}
	if err := tel.JournalMeta(1, 1, 1, 0, "", nil); err != nil {
		t.Error(err)
	}
	if err := tel.JournalSummary(0, 0, 0); err != nil {
		t.Error(err)
	}
}

// TestPooledRunSteadyStateAllocsInstrumented re-runs the steady-state
// allocation pin with a fully wired telemetry hub — registry, journal and all
// per-run hooks — under the SAME budget as the bare test: instrumentation must
// be allocation-free on the hot path.
func TestPooledRunSteadyStateAllocsInstrumented(t *testing.T) {
	j, err := obs.CreateJournal(filepath.Join(t.TempDir(), "run.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	tel := NewTelemetry(obs.NewRegistry(1), j)
	suite := tinySuite()
	tel.bind(suite, 1, 1000, time.Now())

	cfg := params.ThunderX2()
	cache := newProgramCache()
	cache.instrument(tel)
	rc := newRunContext()
	rc.tel, rc.worker = tel, 0
	index := 0
	run := func() {
		tel.beginConfig(0)
		row := Row{Index: index}
		t0 := time.Now()
		for ai, w := range suite {
			prog, err := cache.get(w, cfg.Core.VectorLength, 0)
			if err != nil {
				t.Fatal(err)
			}
			a0 := time.Now()
			st, err := rc.simulate(cfg, prog, simeng.DefaultMaxCycles)
			tel.appRun(0, ai, time.Since(a0).Nanoseconds(), st, err)
			if err != nil {
				t.Fatal(err)
			}
			row.Cycles += st.Cycles
		}
		tel.configDone(0, &row, time.Since(t0).Nanoseconds())
		index++
	}
	run() // warm-up: pooled arrays, journal buffer, slow table
	perSuite := testing.AllocsPerRun(5, run)
	perRun := perSuite / float64(len(suite))
	t.Logf("steady-state allocations with telemetry: %.2f per run", perRun)
	if perRun > allocBudgetPerRun {
		t.Errorf("instrumented steady-state allocations: %.1f per run (%.1f per %d-workload suite), budget %d",
			perRun, perSuite, len(suite), allocBudgetPerRun)
	}
	if perConfig := configAllocs(t, tel); perConfig > allocBudgetPerConfig {
		t.Errorf("instrumented steady-state allocations: %.1f per config, budget %d", perConfig, allocBudgetPerConfig)
	}
}
