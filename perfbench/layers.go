package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"armdse"
	"armdse/internal/isa"
	"armdse/internal/obs"
	"armdse/internal/simeng"
	"armdse/internal/sstmem"
)

// coreSample is the number of configurations whose runs the simeng and
// sstmem probes replay serially (each on every app).
const coreSample = 4

// boundSample caps the configurations the bound-model probe evaluates.
const boundSample = 2000

// runTraced runs a traced study between two untraced studies of the same
// inputs, checks them, then times each layer from outside. The per-layer
// metrics come from the traced study and the probes; the traced study
// against the mean of its untraced neighbours is the tracing overhead.
func runTraced(ctx context.Context, r *runner, opt options, stderr io.Writer) (result, error) {
	before, err := r.study(ctx, 0, plain)
	if err != nil {
		return result{}, err
	}
	r.tr = newTracer()
	s, err := r.study(ctx, 1, traced)
	if err != nil {
		return result{}, err
	}
	after, err := r.study(ctx, 2, plain)
	if err != nil {
		return result{}, err
	}
	v := check(r, s, opt.size)
	for _, u := range []*study{before, after} {
		if s.sha != u.sha {
			v.fail(-1, "traced dataset %s differs from untraced %s", s.sha, u.sha)
		}
	}
	m := map[string]metric{}
	put := func(name string, value float64, unit string) { m[name] = metric{value, unit} }
	ok := okRows(s.rows)

	// workload: program build plus arena materialisation.
	arenas, buildS, minst, err := probeWorkload(r.tr, ok)
	if err != nil {
		return result{}, err
	}
	put("workload.build_s", buildS, "s")
	put("workload.arena_minst", minst, "Minst")

	// simeng and sstmem: serial replay of a fixed sample of runs.
	cp, err := probeCore(r.tr, s, arenas, v)
	if err != nil {
		return result{}, err
	}
	put("simeng.ns_per_cycle", cp.runNs/float64(cp.cycles), "ns")
	put("simeng.minst_per_s", float64(cp.retired)/cp.runNs*1e3, "Minst/s")
	put("simeng.sim_cycles", float64(cp.cycles), "count")
	put("sstmem.ns_per_access", cp.memNs/float64(cp.accesses), "ns")
	put("sstmem.share_pct", 100*cp.memNs/cp.runNs, "%")
	put("sstmem.accesses", float64(cp.accesses), "count")
	put("sstmem.l1_miss_pct", 100*float64(cp.l1Misses)/float64(cp.accesses), "%")

	// orchestrate: the engine's own overhead above per-run simulation.
	snap, prefix := s.reg.Snapshot(), "armdse_"
	runNs := histogramSum(snap, prefix+"run_wall_nanoseconds")
	cfgQ := histogramQuantiles(snap, prefix+"config_wall_nanoseconds")
	put("orchestrate.engine_overhead_pct", 100*(1-runNs/(s.collect.Seconds()*1e9*float64(r.threads))), "%")
	put("orchestrate.config_ms.p50", cfgQ.P50/1e6, "ms")
	put("orchestrate.config_ms.p90", cfgQ.P90/1e6, "ms")

	// hybrid evaluator: routing counts and the bound model's cost.
	predicted, escalated := 0, 0
	for _, ri := range ok {
		switch {
		case ri.Predicted:
			predicted++
		case r.def.Eval == armdse.EvalHybrid:
			escalated++
		}
	}
	put("hybrid.predicted_pct", 100*float64(predicted)/float64(len(ok)), "%")
	put("hybrid.escalated", float64(escalated), "count")
	put("hybrid.bound_us_per_config", probeBound(r.tr, ok, arenas), "us")

	// dataset: journal appends and compaction (the merge, for the fleet).
	put("dataset.append_us_per_row", median(r.tr.durations("dataset.put"))*1e3, "us")
	put("dataset.compact_s", s.compact.Seconds(), "s")

	// dtree: the analysis calls.
	put("dtree.train_s", s.trainS, "s")
	put("dtree.importance_s", s.importanceS, "s")
	put("dtree.analysis_s", s.analysis.Seconds(), "s")

	// search: the proposer barrier.
	var barrier, refit, score []float64
	var collectBarrierMs float64
	pool := 0
	if b := s.batches; b != nil {
		barrier = b.barrierMs
		for i, ms := range barrier {
			// The share is of collection time, which starts at the first
			// dispatch: generation 0's barrier comes before it.
			if !b.startAt[i].Before(s.dispatched) {
				collectBarrierMs += ms
			}
		}
		for _, st := range b.stats {
			refit = append(refit, float64(st.RefitNanos)/1e6)
			score = append(score, float64(st.ScoreNanos)/1e6)
			pool += st.PoolScored
		}
	}
	put("search.barrier_ms.p50", median(barrier), "ms")
	put("search.barrier_ms.max", maxOf(barrier), "ms")
	put("search.barrier_share_pct", 100*collectBarrierMs/(s.collect.Seconds()*1e3), "%")
	put("search.refit_ms", median(refit), "ms")
	put("search.score_ms", median(score), "ms")
	put("search.pool_scored", float64(pool), "count")
	put("search.generations", float64(len(barrier)), "count")

	// fabric: the same configs collected once more through an in-process
	// coordinator and one worker per thread, right after the last
	// single-process study; the merged dataset must be byte-identical.
	var overhead, mergeS, busy float64
	var requests, rejected int
	var steals int64
	endpoint := map[string][]float64{}
	attempted, failed := before.attempted+s.attempted+after.attempted, before.failed+s.failed+after.failed
	if r.def.FabricProbe {
		fleet := *r
		fleet.def = asFleet(r.def)
		f, err := fleet.study(ctx, 3, plain)
		if err != nil {
			return result{}, err
		}
		attempted += f.attempted
		failed += f.failed
		if f.sha != s.sha {
			v.fail(-1, "fleet dataset %s differs from the single-process sweep %s", f.sha, s.sha)
		}
		overhead = 100 * (f.collect.Seconds()/after.collect.Seconds() - 1)
		mergeS = f.compact.Seconds()
		for _, t := range f.transports {
			requests += t.requests
			rejected += t.rejected
			for path, ms := range t.ms {
				endpoint[path] = append(endpoint[path], ms...)
			}
		}
		for _, w := range f.fleetStatus.Workers {
			busy += 100 * w.BusyFrac / float64(len(f.fleetStatus.Workers))
		}
		steals = f.fleetStatus.LeaseSteals
	}
	put("fabric.overhead_pct", overhead, "%")
	put("fabric.advance_ms.p50", median(endpoint["/advance"]), "ms")
	put("fabric.advance_ms.p90", quantile(endpoint["/advance"], 0.9), "ms")
	put("fabric.lease_ms.p50", median(endpoint["/lease"]), "ms")
	put("fabric.requests", float64(requests), "count")
	put("fabric.rejected", float64(rejected), "count")
	put("fabric.steals", float64(steals), "count")
	put("fabric.worker_busy_pct", busy, "%")
	put("fabric.merge_s", mergeS, "s")

	put("trace.overhead_pct", 100*(2*s.studySeconds()/(before.studySeconds()+after.studySeconds())-1), "%")

	traceDir := filepath.Join(opt.workdir, "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return result{}, err
	}
	tracePath := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", r.def.Name, r.seed))
	if err := r.tr.write(tracePath); err != nil {
		return result{}, err
	}
	for _, p := range v.problems {
		fmt.Fprintln(stderr, "perfbench: check:", p)
	}
	fmt.Fprintf(stderr, "perfbench: %s seed %d: traced run, spans in %s\n", r.def.Name, r.seed, tracePath)
	return result{
		Correct:   len(v.problems) == 0,
		Attempted: attempted,
		Failed:    failed + len(v.badConfigs),
		Metrics:   m,
	}, nil
}

func okRows(rows []rowInfo) []rowInfo {
	var out []rowInfo
	for _, ri := range rows {
		if !ri.Failed {
			out = append(out, ri)
		}
	}
	return out
}

type progKey struct {
	app string
	vl  int
}

// probeWorkload builds and materialises the program of every (app, vector
// length) pair the dataset's configurations touch.
func probeWorkload(tr *tracer, rows []rowInfo) (map[progKey][]isa.Inst, float64, float64, error) {
	vls := map[int]bool{}
	for _, ri := range rows {
		vls[ri.Config.Core.VectorLength] = true
	}
	sorted := make([]int, 0, len(vls))
	for vl := range vls {
		sorted = append(sorted, vl)
	}
	sort.Ints(sorted)
	arenas := map[progKey][]isa.Inst{}
	var buildS float64
	var insts int
	root := tr.begin("workload.probe", 0)
	defer tr.end(root)
	for _, w := range armdse.TestSuite() {
		for _, vl := range sorted {
			span := tr.begin("workload.build", root)
			t0 := time.Now()
			p, err := w.Program(vl)
			if err != nil {
				return nil, 0, 0, err
			}
			arena := p.Materialize(0)
			buildS += time.Since(t0).Seconds()
			tr.end(span)
			if arena == nil {
				return nil, 0, 0, fmt.Errorf("%s at VL %d exceeds the arena budget", w.Name(), vl)
			}
			arenas[progKey{w.Name(), vl}] = arena
			insts += len(arena)
		}
	}
	return arenas, buildS, float64(insts) / 1e6, nil
}

// coreProbe totals the serial replay of the sampled runs.
type coreProbe struct {
	runNs, memNs       float64
	cycles, retired    int64
	accesses, l1Misses int64
}

// probeCore runs a fixed sample of the dataset's (config, app) pairs
// serially on fresh simeng cores over the SST hierarchy, timing the whole
// run; a second pass records the hierarchy's Access calls, which are then
// replayed against a fresh hierarchy to time the memory model alone. Exact
// rows must reproduce the dataset's cycles.
func probeCore(tr *tracer, s *study, arenas map[progKey][]isa.Inst, v *verdict) (coreProbe, error) {
	var cp coreProbe
	ok := okRows(s.rows)
	idx := make([]int, len(ok))
	for i := range idx {
		idx[i] = i
	}
	root := tr.begin("simeng.probe", 0)
	defer tr.end(root)
	for _, i := range spaced(idx, coreSample) {
		cfg := ok[i].Config
		for _, w := range armdse.TestSuite() {
			arena := arenas[progKey{w.Name(), cfg.Core.VectorLength}]
			h, err := sstmem.New(cfg.Mem)
			if err != nil {
				return cp, err
			}
			core, err := simeng.New(cfg.Core, h)
			if err != nil {
				return cp, err
			}
			span := tr.begin("simeng.run", root)
			t0 := time.Now()
			st, err := core.RunLimit(isa.NewSliceStream(arena), simeng.DefaultMaxCycles)
			cp.runNs += float64(time.Since(t0).Nanoseconds())
			tr.end(span)
			if err != nil {
				return cp, err
			}
			cp.cycles += st.Cycles
			cp.retired += st.Retired
			if !ok[i].Predicted && float64(st.Cycles) != s.data.Y[w.Name()][i] {
				v.fail(i, "row %d %s: replay %d cycles, dataset %v", i, w.Name(), st.Cycles, s.data.Y[w.Name()][i])
			}

			h2, err := sstmem.New(cfg.Mem)
			if err != nil {
				return cp, err
			}
			rec := &memRecorder{MemoryBackend: h2}
			core2, err := simeng.New(cfg.Core, rec)
			if err != nil {
				return cp, err
			}
			st2, err := core2.RunLimit(isa.NewSliceStream(arena), simeng.DefaultMaxCycles)
			if err != nil {
				return cp, err
			}
			if st2.Cycles != st.Cycles {
				v.fail(i, "row %d %s: recorded run %d cycles, plain run %d", i, w.Name(), st2.Cycles, st.Cycles)
			}

			h3, err := sstmem.New(cfg.Mem)
			if err != nil {
				return cp, err
			}
			span = tr.begin("sstmem.replay", root)
			t0 = time.Now()
			mismatch := 0
			for _, a := range rec.log {
				if h3.Access(a.now, a.addr, a.store) != a.ready {
					mismatch++
				}
			}
			cp.memNs += float64(time.Since(t0).Nanoseconds())
			tr.end(span)
			if mismatch > 0 {
				v.fail(i, "row %d %s: %d replayed accesses completed at other cycles", i, w.Name(), mismatch)
			}
			ms := h3.Stats()
			cp.accesses += ms.Accesses
			cp.l1Misses += ms.L1Misses
		}
	}
	return cp, nil
}

// probeBound times the hybrid evaluator's analytical front end: a bound
// model per configuration plus bounds for every app, from pre-computed
// stream statistics.
func probeBound(tr *tracer, rows []rowInfo, arenas map[progKey][]isa.Inst) float64 {
	stats := map[progKey]isa.StreamStats{}
	for k, arena := range arenas {
		stats[k] = isa.CollectStreamStats(isa.NewSliceStream(arena))
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sample := spaced(idx, boundSample)
	apps := armdse.SuiteNames(armdse.TestSuite())
	span := tr.begin("hybrid.bounds", 0)
	t0 := time.Now()
	for _, i := range sample {
		cfg := rows[i].Config
		bm, err := simeng.NewBoundModel(cfg.Core, cfg.MemProfile())
		if err != nil {
			continue
		}
		for _, app := range apps {
			boundSink += bm.Bounds(stats[progKey{app, cfg.Core.VectorLength}]).Lower
		}
	}
	elapsed := time.Since(t0)
	tr.end(span)
	if len(sample) == 0 {
		return 0
	}
	return float64(elapsed.Nanoseconds()) / 1e3 / float64(len(sample))
}

// boundSink keeps the probe's bounds live so the timed calls are not
// optimised away.
var boundSink int64

// histogramSum totals a histogram family's observations over its series.
func histogramSum(snap obs.Snapshot, name string) float64 {
	var total float64
	for _, f := range snap.Families {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			total += float64(s.Sum)
		}
	}
	return total
}

// histogramQuantiles estimates a histogram family's quantiles from its
// unlabelled series.
func histogramQuantiles(snap obs.Snapshot, name string) obs.QuantileSummary {
	for _, f := range snap.Families {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if len(s.Labels) == 0 {
				return obs.SummaryFromBuckets(s.Buckets)
			}
		}
	}
	return obs.QuantileSummary{}
}
