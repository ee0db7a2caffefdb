package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"armdse"
	"armdse/internal/fabric"
	"armdse/internal/obs"
	"armdse/internal/params"
	"armdse/internal/stats"
)

// workloadDef is one benchmark workload: a dsegen collection followed by the
// dseanalyze protocol. README.md records why each exists.
type workloadDef struct {
	Name string
	// Samples is the fixed sweep's config count, or the adaptive budget.
	Samples int
	// Eval and Escalate select the evaluator, as dsegen -eval and
	// -eval-escalate.
	Eval     string
	Escalate float64
	// Search and Batch select the adaptive proposer, as dsegen -search and
	// -search-batch.
	Search string
	Batch  int
	// Fleet runs the sweep through an in-process coordinator and one fabric
	// worker per simulation thread. No workload runs this way: exact-sweep's
	// traced run collects its configs once more as a fleet (FabricProbe).
	Fleet bool
	// FabricProbe makes a traced run also collect the same configs through
	// the fleet, for the fabric layer's metrics and its byte-identity gate.
	FabricProbe bool
}

// asFleet is def's sweep run through the fleet.
func asFleet(def workloadDef) workloadDef {
	def.Fleet, def.FabricProbe = true, false
	return def
}

// workloadDefs returns the workloads at a size: "full" for measurement,
// "tiny" for the self-test and the wrapper test.
func workloadDefs(size string) (map[string]workloadDef, error) {
	type sizes struct{ exact, adaptive, batch int }
	var n sizes
	switch size {
	case "full":
		n = sizes{exact: 300, adaptive: 1024, batch: 64}
	case "tiny":
		n = sizes{exact: 8, adaptive: 32, batch: 16}
	default:
		return nil, fmt.Errorf("unknown size %q (want full or tiny)", size)
	}
	defs := []workloadDef{
		{Name: "exact-sweep", Samples: n.exact, FabricProbe: true},
		{Name: "adaptive-ucb", Samples: n.adaptive, Eval: armdse.EvalHybrid, Escalate: hybridEscalate, Search: "ucb", Batch: n.batch},
	}
	out := make(map[string]workloadDef, len(defs))
	for _, d := range defs {
		out[d.Name] = d
	}
	return out, nil
}

// hybridEscalate is adaptive-ucb's escalation threshold. At 1.0 the number
// of configs escalated after warmup depends on the seed (78, 117 and 164 of
// a 4000-config hybrid sweep for seeds 1-3), and collection time follows it
// (6.9, 10.9, 16.2 s), so throughput would measure the seed, not the code.
// At 2.0 only the first batch is simulated, the fast path the workload
// stands for.
const hybridEscalate = 2.0

// analysisSplit and analysisRepeats are dseanalyze's defaults.
const (
	analysisSplit   = 0.8
	analysisRepeats = 10
)

// accuracySplits is how many seeded 80/20 hold-outs surrogate_acc_pct
// averages: the timed study's own split plus re-splits scored outside the
// timed phase. On 300-row datasets one split's accuracy spreads 0.16 of its
// median across seeds, five splits' mean 0.07.
const accuracySplits = 5

// study is one collection plus analysis, as a user runs dsegen then
// dseanalyze.
type study struct {
	collect, compact, analysis time.Duration
	dispatched                 time.Time // first dispatch: collection starts
	// threads is the study's simulation thread count. cpu0 is /proc/stat at
	// the study's start; collectSteal and studySteal are the seconds of vCPU
	// time the hypervisor withheld from then to the end of collection and of
	// the study.
	threads                  int
	cpu0                     cpuStat
	collectSteal, studySteal float64
	attempted, failed        int
	sha                      string
	data                     *armdse.Dataset
	rows                     []rowInfo // every row, index order
	accPct                   float64   // mean held-out accuracy over apps
	peakRSSMB                float64   // the study's peak resident set

	// Per-layer detail: analysis call times; the batch timer and telemetry
	// registry of a traced study; the transport timers and coordinator
	// status of a fleet study.
	trainS, importanceS float64
	batches             *timedBatches
	reg                 *obs.Registry
	transports          []*timedTransport
	fleetStatus         fabric.FleetStatus
}

// configsPerSec is configs completed per second of collection wall time
// less the steal: the vCPU time the hypervisor withheld, summed over vCPUs
// and shared among the simulation threads. On a host that withholds
// nothing it is the wall-time rate (README.md, noise profile).
func (s *study) configsPerSec() float64 {
	return float64(s.attempted-s.failed) / (s.collect.Seconds() - s.collectSteal/float64(s.threads))
}

// studySeconds is the study's wall time less the steal, as configsPerSec.
func (s *study) studySeconds() float64 {
	return s.wallSeconds() - s.studySteal/float64(s.threads)
}

// wallSeconds is the study's wall time as measured.
func (s *study) wallSeconds() float64 {
	return (s.collect + s.compact + s.analysis).Seconds()
}

// instr selects how much the benchmark wraps the program's seams.
type instr int

const (
	// bare passes the program's own objects: the wrapper test's reference.
	bare instr = iota
	// plain adds the pass-through wrappers the end-to-end metrics need:
	// the dispatch clock (set-up time) and the row recorder (correctness),
	// plus a fleet's transport timers.
	plain
	// traced adds spans, the batch timer and the engine's telemetry
	// registry.
	traced
)

// runner runs one workload's studies.
type runner struct {
	def     workloadDef
	seed    int64
	threads int
	workdir string
	tr      *tracer
}

// study runs one collection plus analysis in a fresh directory, removed
// afterwards.
func (r *runner) study(ctx context.Context, rep int, level instr) (*study, error) {
	dir := filepath.Join(r.workdir, fmt.Sprintf("rep%d", rep))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	csvPath := filepath.Join(dir, "dataset.csv")

	var tr *tracer
	if level == traced {
		tr = r.tr
	}
	// Each study starts from a heap as clean as a fresh process's, so its
	// peak resident set does not hold the previous study's garbage.
	runtime.GC()
	debug.FreeOSMemory()
	root := tr.begin("study", 0)
	defer tr.end(root)
	s := &study{threads: r.threads, cpu0: readCPUStat()}
	resetPeakRSS()
	var clock dispatchClock
	setupSpan := tr.begin("setup", root)
	var err error
	if r.def.Fleet {
		err = r.collectFleet(ctx, s, csvPath, &clock, level, tr, root)
	} else {
		err = r.collectLocal(ctx, s, csvPath, &clock, level, tr, root)
	}
	tr.endAt(setupSpan, clock.when())
	if err != nil {
		return nil, err
	}
	if level == bare {
		s.collect = 0 // no dispatch clock without the wrappers
	}

	raw, err := os.ReadFile(csvPath)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	s.sha = hex.EncodeToString(sum[:])

	span := tr.begin("dtree.analysis", root)
	a0 := time.Now()
	err = r.analyze(s, csvPath, tr, span)
	s.analysis = time.Since(a0)
	s.studySteal = stealSeconds(s.cpu0, readCPUStat())
	tr.end(span)
	s.peakRSSMB = peakRSSMB()
	return s, err
}

// setupProbe times one more set-up: the same path as a study, cancelled as
// soon as the first configuration is dispatched.
func (r *runner) setupProbe(ctx context.Context, rep int) (time.Duration, error) {
	dir := filepath.Join(r.workdir, fmt.Sprintf("probe%d", rep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	clock := dispatchClock{onMark: cancel, probe: true}
	// The previous probe leaves garbage behind; collect it now so each probe
	// starts as clean as a fresh process.
	runtime.GC()
	s := &study{}
	csvPath := filepath.Join(dir, "dataset.csv")
	t0 := time.Now()
	var err error
	if r.def.Fleet {
		err = r.collectFleet(ctx, s, csvPath, &clock, plain, nil, 0)
	} else {
		err = r.collectLocal(ctx, s, csvPath, &clock, plain, nil, 0)
	}
	if !clock.marked() || (err != nil && !errors.Is(err, context.Canceled)) {
		return 0, fmt.Errorf("set-up probe: no config dispatched (%v)", err)
	}
	return clock.when().Sub(t0), nil
}

// journalMeta is dsegen's journal identity stamp for the workload.
func (r *runner) journalMeta(searchDigest string) string {
	m := fmt.Sprintf("seed=%d samples=%d paper=false", r.seed, r.def.Samples)
	if r.def.Eval != "" && r.def.Eval != armdse.EvalExact {
		m += " eval=" + r.def.Eval
	}
	if searchDigest != "" {
		m += " search=" + searchDigest
	}
	return m
}

// collectLocal is dsegen's single-process path: journal rows through a
// StreamWriter, then compact the journal into the dataset CSV.
func (r *runner) collectLocal(ctx context.Context, s *study, csvPath string, clock *dispatchClock, level instr, tr *tracer, root int) error {
	suite := armdse.TestSuite()
	apps := armdse.SuiteNames(suite)
	if level != bare {
		for i, w := range suite {
			suite[i] = watchedWorkload{Workload: w, clock: clock}
		}
	}
	collectSpan := tr.begin("orchestrate.collect", root)

	var batches armdse.BatchSource
	digest := ""
	if r.def.Search != "" {
		p, err := armdse.NewProposer(armdse.ProposeOptions{
			Strategy: r.def.Search,
			Seed:     r.seed,
			Budget:   r.def.Samples,
			Batch:    r.def.Batch,
			Workers:  r.threads,
			Apps:     apps,
		})
		if err != nil {
			return err
		}
		digest = p.Digest()
		batches = p
		if level == traced {
			s.batches = &timedBatches{inner: p, tr: tr, parent: collectSpan}
			batches = s.batches
		}
	}
	journal := csvPath + ".journal"
	sw, err := armdse.CreateStreamAux(journal, armdse.FeatureNames(), apps, armdse.StallColumns(apps), r.journalMeta(digest))
	if err != nil {
		return err
	}
	sink := armdse.NewStreamSink(sw)
	var rec *recordingSink
	if level != bare {
		rec = &recordingSink{inner: sink, tr: tr, parent: collectSpan}
		sink = rec
	}
	opt := armdse.CollectOptions{
		Seed:         r.seed,
		Samples:      r.def.Samples,
		Batches:      batches,
		Workers:      r.threads,
		Suite:        suite,
		Eval:         r.def.Eval,
		EvalEscalate: r.def.Escalate,
		Validate:     true,
		Sink:         sink,
	}
	if level == traced {
		s.reg = armdse.NewMetricsRegistry(r.threads)
		opt.Telemetry = armdse.NewTelemetry(s.reg, nil)
	}
	res, collectErr := armdse.Collect(ctx, opt)
	end := time.Now()
	s.collectSteal = stealSeconds(s.cpu0, readCPUStat())
	tr.end(collectSpan)
	if err := sw.Close(); err != nil {
		return err
	}
	if collectErr != nil {
		return collectErr
	}
	s.dispatched = clock.when()
	s.collect = end.Sub(s.dispatched)
	s.attempted = res.Done

	span := tr.begin("dataset.compact", root)
	c0 := time.Now()
	data, failed, err := armdse.CompactStream(journal)
	if err == nil {
		err = data.SaveFile(csvPath)
	}
	if err == nil {
		err = os.Remove(journal)
	}
	s.compact = time.Since(c0)
	tr.end(span)
	if err != nil {
		return err
	}
	s.failed = failed
	s.data = data
	if rec != nil {
		s.rows = rec.sorted()
	}
	return nil
}

// collectFleet is dsecoord plus one dsegen -worker per simulation thread,
// in-process: each worker has one simulation thread and one HTTP
// connection. Set-up ends when the first lease is granted.
func (r *runner) collectFleet(ctx context.Context, s *study, csvPath string, clock *dispatchClock, level instr, tr *tracer, root int) error {
	coord, err := fabric.NewCoordinator(fabric.CoordConfig{
		Spec: fabric.NewSpec(r.seed, r.def.Samples, false),
		Out:  csvPath,
	})
	if err != nil {
		return err
	}
	srv, addr, err := obs.Serve("127.0.0.1:0", coord.Handler())
	if err != nil {
		return err
	}
	defer srv.Close()
	// dsecoord sweeps expired leases every half expiry (30 s default).
	stopSweep := coord.StartExpirySweep(15 * time.Second)
	defer stopSweep()

	collectSpan := tr.begin("fabric.collect", root)
	onLease := func() {
		if !clock.marked() && coord.Status().LeaseGrants > 0 {
			clock.mark()
		}
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, r.threads)
	var wg sync.WaitGroup
	for i := 0; i < r.threads; i++ {
		base := http.DefaultTransport.(*http.Transport).Clone()
		base.MaxConnsPerHost = 1
		base.MaxIdleConnsPerHost = 1
		defer base.CloseIdleConnections()
		var rt http.RoundTripper = base
		if level != bare {
			tt := &timedTransport{inner: base, tr: tr, parent: collectSpan, onLease: onLease}
			s.transports = append(s.transports, tt)
			rt = tt
		}
		cfg := fabric.WorkerConfig{
			Coord:   "http://" + addr,
			Name:    fmt.Sprintf("worker-%d", i),
			Threads: 1,
			Client:  &http.Client{Transport: rt},
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fabric.RunWorker(wctx, cfg)
		}(i)
	}
	workersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(workersDone)
	}()
	// waitWorkers stops the fleet and reports the first worker error.
	waitWorkers := func() error {
		select {
		case <-workersDone:
		case <-time.After(10 * time.Second):
			cancel()
			<-workersDone
		}
		return errors.Join(errs...)
	}

	select {
	case <-coord.Done():
	case <-workersDone:
		select {
		case <-coord.Done():
		default:
			return fmt.Errorf("fleet workers exited before the run completed: %w", errors.Join(errs...))
		}
	case <-ctx.Done():
		cancel()
		<-workersDone
		return ctx.Err()
	}
	end := time.Now()
	s.collectSteal = stealSeconds(s.cpu0, readCPUStat())
	tr.end(collectSpan)
	s.dispatched = clock.when()
	s.collect = end.Sub(s.dispatched)

	span := tr.begin("fabric.merge", root)
	c0 := time.Now()
	data, failed, err := coord.Merge()
	if err == nil {
		err = data.SaveFile(csvPath)
	}
	if err == nil {
		err = coord.Cleanup()
	}
	s.compact = time.Since(c0)
	tr.end(span)
	if err != nil {
		cancel()
		<-workersDone
		return err
	}
	if err := waitWorkers(); err != nil {
		return err
	}
	s.fleetStatus = coord.Status()
	s.attempted = r.def.Samples
	s.failed = failed
	s.data = data
	if failed == 0 {
		s.rows = make([]rowInfo, r.def.Samples)
		for i := range s.rows {
			s.rows[i] = rowInfo{Index: i, Config: params.ConfigAt(r.seed, i)}
		}
	}
	return nil
}

// heldOutAccuracy trains one tree per app on an 80/20 split of data and
// returns the held-out mean accuracy, averaged over apps.
func (r *runner) heldOutAccuracy(data *armdse.Dataset, splitSeed int64, tr *tracer, parent int, trainS *float64) (float64, error) {
	train, test := data.Split(splitSeed, analysisSplit)
	if train.Len() == 0 || test.Len() == 0 {
		return 0, fmt.Errorf("dataset of %d rows too small for the split", data.Len())
	}
	opt := armdse.TreeOptions{Workers: r.threads}
	var accSum float64
	for _, app := range data.Apps {
		span := tr.begin("dtree.train", parent)
		t0 := time.Now()
		tree, err := armdse.TrainSurrogateOpt(train, app, opt)
		*trainS += time.Since(t0).Seconds()
		tr.end(span)
		if err != nil {
			return 0, err
		}
		yTest, err := test.Target(app)
		if err != nil {
			return 0, err
		}
		pred := tree.PredictAll(test.X)
		for _, p := range []float64{1, 2, 5, 10, 25} {
			if _, err := stats.WithinPct(pred, yTest, p); err != nil {
				return 0, err
			}
		}
		acc, err := stats.MeanAccuracyPct(pred, yTest)
		if err != nil {
			return 0, err
		}
		accSum += acc
	}
	return accSum / float64(len(data.Apps)), nil
}

// surrogateAccuracy is surrogate_acc_pct: the study's held-out accuracy
// averaged with accuracySplits-1 re-splits of the same dataset.
func (r *runner) surrogateAccuracy(s *study) (float64, error) {
	total := s.accPct
	var unused float64
	for k := 1; k < accuracySplits; k++ {
		acc, err := r.heldOutAccuracy(s.data, r.seed+int64(k), nil, 0, &unused)
		if err != nil {
			return 0, err
		}
		total += acc
	}
	return total / accuracySplits, nil
}

// analyze runs dseanalyze's protocol on the CSV: an 80/20 split, one tree
// per app scored on the held-out rows, then a full-data tree per app ranked
// by 10-repeat permutation importance.
func (r *runner) analyze(s *study, csvPath string, tr *tracer, parent int) error {
	data, err := armdse.LoadDataset(csvPath)
	if err != nil {
		return err
	}
	acc, err := r.heldOutAccuracy(data, r.seed, tr, parent, &s.trainS)
	if err != nil {
		return err
	}
	s.accPct = acc
	opt := armdse.TreeOptions{Workers: r.threads}
	for _, app := range data.Apps {
		span := tr.begin("dtree.train", parent)
		t0 := time.Now()
		tree, err := armdse.TrainSurrogateOpt(data, app, opt)
		s.trainS += time.Since(t0).Seconds()
		tr.end(span)
		if err != nil {
			return err
		}
		span = tr.begin("dtree.importance", parent)
		t0 = time.Now()
		imps, err := armdse.FeatureImportanceOpt(tree, data, app, armdse.ImportanceOptions{
			Repeats: analysisRepeats, Seed: r.seed, Workers: r.threads,
		})
		s.importanceS += time.Since(t0).Seconds()
		tr.end(span)
		if err != nil {
			return err
		}
		armdse.TopImportances(imps, 10)
	}
	return nil
}
