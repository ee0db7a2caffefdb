package orchestrate

import (
	"reflect"
	"testing"

	"armdse/internal/params"
	"armdse/internal/simeng"
	"armdse/internal/sstmem"
	"armdse/internal/workload"
)

// freshRunSST is the reference semantics for the pooled path: a brand-new
// SST backend, core and stream per run.
func freshRunSST(t *testing.T, cfg params.Config, w workload.Workload) simeng.Stats {
	t.Helper()
	prog, err := w.Program(cfg.Core.VectorLength)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := NewBackend(BackendSST, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := simeng.Simulate(cfg.Core, mem, prog.Stream())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPooledMatchesFresh is the pooled-vs-fresh differential: one runContext
// carries every (config, workload) run in sequence — the production worker
// pattern, its pooled cursor replaying each program from the loop templates
// — and each result must equal, field for field, the same run on a freshly
// constructed core, backend and stream. The config list deliberately
// whipsaws sizes: a maximal-ROB design immediately followed by a minimal one,
// so any state the Resets fail to shrink or clear (window slots, cache-way
// fill times, heap contents, loop-buffer locks, cursor position) would leak
// into the small run. It opens with a High-fidelity ThunderX2 followed by
// the plain (Basic) one, so any High-fidelity state a Reset keeps (bank
// arbitration, DRAM rows, stride streams) would leak into the Basic run.
func TestPooledMatchesFresh(t *testing.T) {
	high := params.ThunderX2()
	high.Mem.Fidelity = sstmem.High
	big := params.ThunderX2()
	big.Core.ROBSize = 512
	big.Core.LoadQueueSize = 512
	big.Core.StoreQueueSize = 512
	small := params.ThunderX2()
	small.Core.ROBSize = 8
	small.Core.LoadQueueSize = 4
	small.Core.StoreQueueSize = 4
	configs := []params.Config{
		high,
		params.ThunderX2(), // adversarial: Basic directly after High
		params.ConfigAt(42, 0),
		big,
		small, // adversarial: max-ROB run directly before min-ROB
		params.ConfigAt(42, 5),
	}
	cache := newProgramCache()
	rc := newRunContext()
	for ci, cfg := range configs {
		for _, w := range tinySuite() {
			prog, err := cache.get(w, cfg.Core.VectorLength, 0)
			if err != nil {
				t.Fatal(err)
			}
			pooled, err := rc.simulate(cfg, prog, simeng.DefaultMaxCycles)
			if err != nil {
				t.Fatalf("config %d, %s: pooled run failed: %v", ci, w.Name(), err)
			}
			fresh := freshRunSST(t, cfg, w)
			if !reflect.DeepEqual(pooled, fresh) {
				t.Errorf("config %d, %s: pooled stats != fresh stats\npooled: %+v\nfresh:  %+v",
					ci, w.Name(), pooled, fresh)
			}
			if pooled.Retired == 0 {
				t.Errorf("config %d, %s: retired nothing", ci, w.Name())
			}
		}
	}
}

// TestPooledTruncatedThenFull pins Reset behaviour after an *aborted* run: a
// run cut off mid-flight by the cycle budget leaves the core full of live
// state (in-flight loads, locked loop buffer, part-drained queues), and the
// next full run on the same context must still be byte-identical to a fresh
// core's.
func TestPooledTruncatedThenFull(t *testing.T) {
	cfg := params.ThunderX2()
	w := tinySuite()[0]
	cache := newProgramCache()
	prog, err := cache.get(w, cfg.Core.VectorLength, 0)
	if err != nil {
		t.Fatal(err)
	}
	rc := newRunContext()
	if _, err := rc.simulate(cfg, prog, 50); err == nil {
		t.Fatal("50-cycle budget did not truncate the run")
	}
	full, err := rc.simulate(cfg, prog, simeng.DefaultMaxCycles)
	if err != nil {
		t.Fatal(err)
	}
	fresh := freshRunSST(t, cfg, w)
	if !reflect.DeepEqual(full, fresh) {
		t.Errorf("post-truncation pooled stats != fresh stats\npooled: %+v\nfresh:  %+v", full, fresh)
	}
}

// allocBudgetPerRun is the pinned steady-state heap-allocation budget for one
// pooled (config, workload) run. The hot path is designed to allocate
// nothing once the pooled structures reach their high-water marks; the
// budget leaves slack only for one-off growth events (a heap or ready-list
// doubling on a new workload mix) and instrumentation noise.
const allocBudgetPerRun = 8

// TestPooledRunSteadyStateAllocs pins the zero-allocation property of the
// pooled run path: after warm-up runs grow every table to its high-water
// mark, further runs through the same runContext must stay within
// allocBudgetPerRun heap allocations each.
func TestPooledRunSteadyStateAllocs(t *testing.T) {
	cfg := params.ThunderX2()
	cache := newProgramCache()
	suite := tinySuite()
	rc := newRunContext()
	run := func() {
		for _, w := range suite {
			prog, err := cache.get(w, cfg.Core.VectorLength, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rc.simulate(cfg, prog, simeng.DefaultMaxCycles); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // warm-up: grow pooled arrays/tables to their high-water marks
	perSuite := testing.AllocsPerRun(5, run)
	perRun := perSuite / float64(len(suite))
	t.Logf("steady-state allocations: %.2f per run", perRun)
	if perRun > allocBudgetPerRun {
		t.Errorf("steady-state allocations: %.1f per run (%.1f per %d-workload suite), budget %d",
			perRun, perSuite, len(suite), allocBudgetPerRun)
	}
	if perConfig := configAllocs(t, nil); perConfig > allocBudgetPerConfig {
		t.Errorf("steady-state allocations: %.1f per config, budget %d", perConfig, allocBudgetPerConfig)
	}
}

// allocBudgetPerConfig is the pinned steady-state heap-allocation budget for
// one exact configuration on the 4-app tinySuite through the engine's
// per-config path: one per pooled run, the feature vector, and the row's
// target and stall maps. It catches any per-config cost the evaluation
// interface adds on top of the pooled runs.
const allocBudgetPerConfig = 9

// configAllocs measures the steady-state allocations of one exact
// configuration through a per-worker evaluator and the engine's row build
// (evalRow), recording into tel (nil = untelemetered, otherwise already
// bound).
func configAllocs(t *testing.T, tel *Telemetry) float64 {
	t.Helper()
	ev, err := NewEvaluator(EvalExact, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ev.instrument(tel)
	ew := ev.Worker(0)
	cfg := params.ThunderX2()
	suite := tinySuite()
	index := 0
	run := func() {
		row := evalRow(ew, suite, index, cfg)
		if row.Failed() {
			t.Fatal(row.Err)
		}
		tel.configDone(0, &row, 1)
		index++
	}
	run() // warm-up: program builds and pooled high-water marks
	perConfig := testing.AllocsPerRun(20, run)
	t.Logf("steady-state allocations: %.2f per config", perConfig)
	return perConfig
}
