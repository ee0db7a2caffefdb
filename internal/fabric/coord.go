package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"armdse/internal/dataset"
	"armdse/internal/obs"
	"armdse/internal/simeng"
)

// The coordinator side of the fabric. A Coordinator owns the lease table,
// the run's journal (workers upload chunk by chunk, and every committed row
// is on disk before the cursor moves), the obs metrics/status surface, and
// the JSONL runlog. The journal is <out>.journal, opened by
// dataset.OpenJournal exactly as dsegen opens it, so a restarted
// coordinator resumes it and either tool can finish a collection the other
// started. When the table completes, Merge compacts the journal into the
// final dataset.

// CoordConfig configures a Coordinator. Zero values get defaults.
type CoordConfig struct {
	// Spec is the run identity; required (see NewSpec).
	Spec Spec
	// Out is the final dataset CSV path; required. Committed rows are
	// journaled to Out + ".journal" until Merge compacts them. When that
	// journal exists, NewCoordinator resumes it: by determinism, a journal
	// whose stamp matches holds exactly this run's rows.
	Out string
	// LeaseSize is the config count per initial lease (default 64); Chunk
	// is the advance/steal granularity (default 16, clamped to LeaseSize).
	LeaseSize int
	Chunk     int
	// Expiry is the heartbeat deadline after which an unrefreshed lease is
	// requeued (default 30s).
	Expiry time.Duration
	// HeartbeatEvery spaces runlog heartbeat records (default 5s).
	HeartbeatEvery time.Duration
	// Registry receives the fleet metrics; nil allocates a private one.
	Registry *obs.Registry
	// Runlog, when non-empty, is the path of the coordinator's JSONL runlog
	// (meta, lease events, heartbeats, summary). It is created only once
	// the journal is accepted, so a refused restart leaves the earlier
	// run's runlog as it was; Close closes it.
	Runlog string
	// Log, when non-nil, receives human-readable progress lines.
	Log io.Writer
}

// Coordinator runs one fleet collection. Create with NewCoordinator, mount
// Handler on an HTTP server, then Wait + Merge.
type Coordinator struct {
	spec    Spec
	digest  string
	path    string // the journal, Out + ".journal"
	journal *dataset.StreamWriter
	resumed int // rows journaled before this coordinator started
	table   *Table
	reg     *obs.Registry
	runlog  *obs.Journal // best-effort: a failed runlog write never fails the run
	logw    io.Writer
	hbEach  time.Duration
	start   time.Time

	doneOnce sync.Once
	doneCh   chan struct{}

	// mu guards the per-worker stats, row totals and runlog clock. Never
	// held while taking the table lock.
	mu      sync.Mutex
	workers map[string]*fleetWorker
	failed  int // failed configs journaled by this coordinator
	cycles  int64
	lastHB  time.Time
	merged  bool
	closed  bool

	mGrants, mExpiries, mSteals *obs.Counter
	mRows                       *obs.Counter
	gPending, gActive, gDone    *obs.Gauge
	gConfigs, gTotal            *obs.Gauge
	gRPS, gETA, gCycles         *obs.Gauge
}

// fleetWorker tracks one worker's contribution for per-worker rows/sec,
// plus the latest telemetry snapshot it piggybacked on an advance or
// heartbeat.
type fleetWorker struct {
	rows     int64
	first    time.Time
	lastSeen time.Time
	counter  *obs.Counter
	tel      *WorkerTelemetry
	telAt    time.Time
}

// NewCoordinator builds the coordinator state: the journal, the lease table
// over the indices it does not yet hold, the runlog and its meta record, and
// the metric handles. A journal of another run (a different stamp or column
// layout) is refused, and neither it nor the runlog is touched.
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) {
	if cfg.Spec.Samples <= 0 {
		return nil, fmt.Errorf("fabric: coordinator spec has %d samples", cfg.Spec.Samples)
	}
	if cfg.Out == "" {
		return nil, fmt.Errorf("fabric: coordinator needs an output path")
	}
	if cfg.LeaseSize <= 0 {
		cfg.LeaseSize = 64
	}
	if cfg.Chunk <= 0 {
		cfg.Chunk = 16
	}
	if cfg.Chunk > cfg.LeaseSize {
		cfg.Chunk = cfg.LeaseSize
	}
	if cfg.Expiry <= 0 {
		cfg.Expiry = 30 * time.Second
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 5 * time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry(1)
	}
	path := cfg.Out + ".journal"
	jw, resumed, err := dataset.OpenJournal(path, cfg.Spec.Features, cfg.Spec.Apps, cfg.Spec.Aux, cfg.Spec.Meta)
	if err != nil {
		return nil, err
	}
	// A resumed run's lease epochs start at the wall clock in nanoseconds.
	// An earlier run re-granted a lease only after its deadline passed, so
	// it issued at most one epoch per lease per nanosecond on top of a base
	// that was 0 or its own start time: every epoch it issued is below the
	// time it stopped. A worker left over from before the crash therefore
	// never names a live lease; it gets 409 and asks for a new one.
	epoch0 := 0
	if resumed {
		epoch0 = int(time.Now().UnixNano())
	}
	table, err := NewTable(cfg.Spec.Samples, cfg.LeaseSize, cfg.Chunk, cfg.Expiry, jw.Done(), epoch0)
	if err != nil {
		jw.Close()
		return nil, err
	}
	var runlog *obs.Journal
	if cfg.Runlog != "" {
		if runlog, err = obs.CreateJournal(cfg.Runlog); err != nil {
			jw.Close()
			return nil, err
		}
	}
	r := cfg.Registry
	c := &Coordinator{
		spec:      cfg.Spec,
		digest:    cfg.Spec.Digest(),
		path:      path,
		journal:   jw,
		resumed:   jw.Len(),
		table:     table,
		reg:       r,
		runlog:    runlog,
		logw:      cfg.Log,
		hbEach:    cfg.HeartbeatEvery,
		start:     time.Now(),
		doneCh:    make(chan struct{}),
		workers:   make(map[string]*fleetWorker),
		lastHB:    time.Now(),
		mGrants:   r.Counter("armdse_fabric_lease_grants_total", "Leases granted, including re-grants after expiry."),
		mExpiries: r.Counter("armdse_fabric_lease_expirations_total", "Leases requeued after a missed heartbeat deadline."),
		mSteals:   r.Counter("armdse_fabric_lease_steals_total", "Lease splits that moved a straggler's un-started tail to an idle worker."),
		mRows:     r.Counter("armdse_fabric_rows_total", "Configurations journaled across the fleet."),
		gPending:  r.Gauge("armdse_fabric_leases_pending", "Leases queued, unassigned."),
		gActive:   r.Gauge("armdse_fabric_leases_active", "Leases currently assigned to a worker."),
		gDone:     r.Gauge("armdse_fabric_leases_completed", "Leases fully uploaded."),
		gConfigs:  r.Gauge("armdse_fabric_done", "Configurations uploaded so far."),
		gTotal:    r.Gauge("armdse_fabric_total", "Configurations in the fleet run."),
		gRPS:      r.Gauge("armdse_fabric_rows_per_second", "Mean fleet upload rate."),
		gETA:      r.Gauge("armdse_fabric_eta_seconds", "Estimated wall time to fleet completion."),
		gCycles:   r.Gauge("armdse_fabric_cycles_total", "Core cycles simulated across the fleet."),
	}
	c.gTotal.SetInt(int64(cfg.Spec.Samples))
	c.gConfigs.SetInt(int64(c.resumed))
	// The runlog's first record. Workers is 0: the fleet size is dynamic,
	// discovered lease by lease.
	_ = runlog.WriteRecord(obs.MetaRecord{
		Type: "meta", Version: 1,
		Seed: c.spec.Seed, Samples: c.spec.Samples, Resumed: c.resumed,
		Apps: c.spec.Apps, StallClasses: simeng.StallClassNames(),
		Fabric: &obs.FabricMeta{LeaseSize: cfg.LeaseSize, Chunk: cfg.Chunk, ExpiryMS: cfg.Expiry.Milliseconds()},
	})
	if table.Done() {
		c.signalDone()
	}
	return c, nil
}

// Registry returns the coordinator's metrics registry.
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// Done returns a channel closed when every lease has completed.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Wait blocks until the fleet completes or ctx is cancelled.
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-c.doneCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// StartExpirySweep requeues stale leases every interval until the returned
// stop function is called — the liveness backstop for a fleet whose
// surviving workers are all mid-chunk (lease acquisition also expires
// lazily, so the sweep only bounds detection latency).
func (c *Coordinator) StartExpirySweep(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-tick.C:
				c.noteEvents(c.table.ExpireStale(now), now)
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// Handler returns the coordinator's HTTP surface: the fabric protocol
// endpoints plus the standard obs telemetry mux (/metrics, /status,
// /debug/vars, /debug/pprof) on everything else.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/spec", c.handleSpec)
	mux.HandleFunc("/lease", c.handleLease)
	mux.HandleFunc("/advance", c.handleAdvance)
	mux.HandleFunc("/heartbeat", c.handleHeartbeat)
	// /metrics is overridden ahead of the obs catch-all so the exposition
	// carries both the coordinator's own registry and the fleet-merged
	// armdse_fleet_* view of every worker's piggybacked snapshot.
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.WritePrometheus(w, c.reg.Snapshot())
		_ = obs.WritePrometheus(w, c.FleetSnapshot())
	})
	mux.Handle("/", obs.Handler(c.reg, func() any { return c.Status() }))
	return mux
}

// maxBody bounds request bodies: a chunk of rows is a few hundred KB at
// most, so 32 MiB is far past any legitimate message.
const maxBody = 32 << 20

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return body, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) handleSpec(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, c.spec)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeLeaseRequest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Identity gate: a worker from a different run (seed, samples, suite)
	// or a different build (column layout) is rejected before it can hold
	// a lease, let alone contribute a row.
	if req.Meta != c.spec.Meta {
		http.Error(w, fmt.Sprintf("fabric: worker run identity %q, coordinator is %q", req.Meta, c.spec.Meta),
			http.StatusForbidden)
		return
	}
	if req.Columns != c.digest {
		http.Error(w, fmt.Sprintf("fabric: worker column layout %s, coordinator is %s (mismatched build?)",
			req.Columns, c.digest), http.StatusForbidden)
		return
	}
	now := time.Now()
	lease, done, events := c.table.Acquire(req.Worker, now)
	c.noteEvents(events, now)
	c.touchWorker(req.Worker, now)
	switch {
	case done:
		c.signalDone()
		writeJSON(w, LeaseResponse{Done: true})
	case lease == nil:
		writeJSON(w, LeaseResponse{Wait: true})
	default:
		writeJSON(w, LeaseResponse{Lease: lease})
	}
}

func (c *Coordinator) handleAdvance(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeAdvanceRequest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// A malformed telemetry payload rejects the advance before any row is
	// committed, keeping the strict-wire contract symmetric with the rest of
	// the message.
	tel, err := decodeObs(req.Obs)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	now := time.Now()
	var journaled int
	var journaledFailed int
	var journaledCycles int64
	// The commit callback runs inside the table lock after the cursor move
	// is validated and before it happens: the chunk's rows hit the journal
	// as one flushed batch, or none of them do and the advance is rejected
	// whole. A crash between commit and response loses nothing: the
	// restarted coordinator finds the chunk journaled and leases only what
	// is missing.
	commit := func(lo, prev, hi int) error {
		if len(req.Rows) != req.Cursor-prev {
			return fmt.Errorf("%w: %d rows for range [%d, %d)", ErrBadAdvance, len(req.Rows), prev, req.Cursor)
		}
		rows := make([]dataset.StreamRow, len(req.Rows))
		for i, row := range req.Rows {
			if row.Index != prev+i {
				return fmt.Errorf("%w: row %d has index %d, want %d", ErrBadAdvance, i, row.Index, prev+i)
			}
			targets, aux, err := c.rowMaps(row)
			if err != nil {
				return err
			}
			rows[i] = dataset.StreamRow{Index: row.Index, Failed: row.Failed, Features: row.Features, Targets: targets, Aux: aux}
		}
		if err := c.journal.AppendRows(rows); err != nil {
			return err
		}
		for _, row := range req.Rows {
			journaled++
			journaledCycles += row.Cycles
			if row.Failed {
				journaledFailed++
			}
		}
		return nil
	}
	hi, done, events, err := c.table.Advance(req.LeaseID, req.Epoch, req.Worker, req.Cursor, now, commit)
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	c.noteTelemetry(req.Worker, tel, now)
	c.noteRows(req.Worker, journaled, journaledFailed, journaledCycles, now)
	c.noteEvents(events, now)
	if done && c.table.Done() {
		c.signalDone()
	}
	writeJSON(w, AdvanceResponse{Hi: hi, Done: done})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeHeartbeatRequest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	tel, err := decodeObs(req.Obs)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	now := time.Now()
	hi, err := c.table.Heartbeat(req.LeaseID, req.Epoch, req.Worker, now)
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	c.noteTelemetry(req.Worker, tel, now)
	c.touchWorker(req.Worker, now)
	writeJSON(w, HeartbeatResponse{Hi: hi})
}

// statusFor maps advance and heartbeat errors to HTTP statuses: stale
// assignments are conflicts (the worker drops the lease and re-acquires),
// unknown leases are not-found, malformed advances and rows that disagree
// with the journal are bad requests, and a failed journal write is the
// coordinator's own error.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrStaleLease):
		return http.StatusConflict
	case errors.Is(err, ErrUnknownLease):
		return http.StatusNotFound
	case errors.Is(err, ErrBadAdvance), errors.Is(err, dataset.ErrConflict):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// rowMaps rebuilds the journal's column-keyed maps from a wire row's
// spec-ordered vectors.
func (c *Coordinator) rowMaps(row WireRow) (targets, aux map[string]float64, err error) {
	if len(row.Features) != len(c.spec.Features) {
		return nil, nil, fmt.Errorf("%w: row %d has %d features, spec has %d", ErrBadAdvance, row.Index, len(row.Features), len(c.spec.Features))
	}
	if row.Failed {
		return nil, nil, nil
	}
	if len(row.Targets) != len(c.spec.Apps) || len(row.Aux) != len(c.spec.Aux) {
		return nil, nil, fmt.Errorf("%w: row %d has %d targets / %d aux, spec has %d / %d",
			ErrBadAdvance, row.Index, len(row.Targets), len(row.Aux), len(c.spec.Apps), len(c.spec.Aux))
	}
	targets = make(map[string]float64, len(c.spec.Apps))
	for i, app := range c.spec.Apps {
		targets[app] = row.Targets[i]
	}
	aux = make(map[string]float64, len(c.spec.Aux))
	for i, name := range c.spec.Aux {
		aux[name] = row.Aux[i]
	}
	return targets, aux, nil
}

func (c *Coordinator) signalDone() {
	c.doneOnce.Do(func() { close(c.doneCh) })
}

// touchWorker refreshes the worker's last-seen clock.
func (c *Coordinator) touchWorker(name string, now time.Time) {
	c.mu.Lock()
	c.workerLocked(name, now).lastSeen = now
	c.mu.Unlock()
}

// workerLocked resolves (creating) the per-worker stats. Caller holds mu.
func (c *Coordinator) workerLocked(name string, now time.Time) *fleetWorker {
	fw, ok := c.workers[name]
	if !ok {
		fw = &fleetWorker{
			first:   now,
			counter: c.reg.Counter("armdse_fabric_worker_rows_total", "Configurations journaled per worker.", obs.L("worker", name)),
		}
		c.workers[name] = fw
	}
	return fw
}

// noteRows folds one committed chunk into the fleet totals, gauges and —
// when the runlog heartbeat is due — the runlog.
func (c *Coordinator) noteRows(worker string, rows, failed int, cycles int64, now time.Time) {
	if rows == 0 {
		return
	}
	_, _, _, doneConfigs := c.table.Counts()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed += failed
	c.cycles += cycles
	fw := c.workerLocked(worker, now)
	fw.rows += int64(rows)
	fw.lastSeen = now
	fw.counter.Add(0, int64(rows))
	c.mRows.Add(0, int64(rows))

	elapsed := now.Sub(c.start)
	rps, eta := c.progress(doneConfigs, elapsed.Seconds())
	c.gConfigs.SetInt(int64(doneConfigs))
	c.gRPS.Set(rps)
	c.gCycles.SetInt(c.cycles)
	c.gETA.Set(eta)

	if c.runlog != nil && (now.Sub(c.lastHB) >= c.hbEach || doneConfigs == c.spec.Samples) {
		c.lastHB = now
		_ = c.runlog.WriteRecord(obs.HeartbeatRecord{
			Type: "heartbeat", ElapsedS: obs.Round3(elapsed.Seconds()),
			Done: doneConfigs, Failed: c.failed, Total: c.spec.Samples,
			RowsPerSec: obs.Round3(rps), ETAS: obs.Round3(eta), Cycles: c.cycles,
		})
		c.writeUtilLocked(now)
	}
}

// progress returns the fleet's upload rate and ETA with done of the run's
// configs finished after elapsed seconds. Rows the journal held at start
// count as done but not toward the rate.
func (c *Coordinator) progress(done int, elapsed float64) (rps, eta float64) {
	ran := done - c.resumed
	if elapsed > 0 {
		rps = float64(ran) / elapsed
	}
	if ran > 0 && done < c.spec.Samples {
		eta = elapsed * float64(c.spec.Samples-done) / float64(ran)
	}
	return rps, eta
}

// noteEvents records lease state transitions: counters, state gauges, the
// runlog and the progress log.
func (c *Coordinator) noteEvents(events []LeaseEvent, now time.Time) {
	if len(events) == 0 {
		return
	}
	pending, active, completed, _ := c.table.Counts()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gPending.SetInt(int64(pending))
	c.gActive.SetInt(int64(active))
	c.gDone.SetInt(int64(completed))
	for _, ev := range events {
		switch ev.Event {
		case "grant":
			c.mGrants.Inc(0)
		case "expire":
			c.mExpiries.Inc(0)
		case "steal":
			c.mSteals.Inc(0)
		}
		if ev.Event != "advance" {
			_ = c.runlog.WriteRecord(obs.LeaseRecord{
				Type: "lease", Event: ev.Event, Lease: ev.Lease, Epoch: ev.Epoch,
				Worker: ev.Worker, Lo: ev.Lo, Hi: ev.Hi, Cursor: ev.Cursor,
				ElapsedS: obs.Round3(now.Sub(c.start).Seconds()),
			})
		}
		if c.logw != nil && ev.Event != "advance" {
			fmt.Fprintf(c.logw, "lease %d %s [%d,%d) cursor %d worker %s\n",
				ev.Lease, ev.Event, ev.Lo, ev.Hi, ev.Cursor, ev.Worker)
		}
	}
}

// Merge closes the journal and compacts it into the final dataset,
// verifying it covers the whole index space. Call after Wait; the failed
// count reports configurations dropped by the validation gate, exactly as
// a single-process compaction would.
func (c *Coordinator) Merge() (*dataset.Dataset, int, error) {
	c.mu.Lock()
	merged := c.merged
	c.merged = true
	c.mu.Unlock()
	if merged {
		return nil, 0, fmt.Errorf("fabric: coordinator already merged")
	}
	if err := c.journal.Close(); err != nil {
		return nil, 0, err
	}
	ds, failed, err := dataset.CompactStream(c.path)
	if err != nil {
		return nil, 0, err
	}
	if got := ds.Len() + failed; got != c.spec.Samples {
		return nil, 0, fmt.Errorf("fabric: merged %d configurations, run has %d", got, c.spec.Samples)
	}
	lines, bytes := c.runlog.Stats()
	_ = c.runlog.WriteRecord(obs.SummaryRecord{
		Type: "summary", Rows: ds.Len(), Failed: failed,
		ElapsedS: obs.Round3(time.Since(c.start).Seconds()), JournalLines: lines, JournalBytes: bytes,
	})
	return ds, failed, nil
}

// Cleanup removes the journal — call once the merged dataset is safely
// written.
func (c *Coordinator) Cleanup() error { return os.Remove(c.path) }

// Close closes the journal and the runlog; later calls do nothing. Merge
// closes the journal but leaves the runlog open for its summary record.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	jerr := c.journal.Close()
	if err := c.runlog.Close(); err != nil {
		return err
	}
	return jerr
}

// FleetWorkerStatus is one worker's row in the fleet status view. BusyS,
// UpS and BusyFrac come from the worker's piggybacked telemetry (zero until
// its first advance); Straggler marks a last-heartbeat age beyond the
// fleet's median-lag threshold.
type FleetWorkerStatus struct {
	Name       string  `json:"name"`
	Rows       int64   `json:"rows"`
	RowsPerSec float64 `json:"rows_per_sec"`
	LastSeenS  float64 `json:"last_seen_s"`
	BusyS      float64 `json:"busy_s"`
	UpS        float64 `json:"up_s"`
	BusyFrac   float64 `json:"busy_frac"`
	Straggler  bool    `json:"straggler"`
}

// FleetStatus is the coordinator's /status payload.
type FleetStatus struct {
	Done       int     `json:"done"`
	Failed     int     `json:"failed"`
	Total      int     `json:"total"`
	ElapsedSec float64 `json:"elapsed_s"`
	ETASec     float64 `json:"eta_s"`
	RowsPerSec float64 `json:"rows_per_sec"`
	Cycles     int64   `json:"cycles"`

	LeasesPending   int   `json:"leases_pending"`
	LeasesActive    int   `json:"leases_active"`
	LeasesCompleted int   `json:"leases_completed"`
	LeaseGrants     int64 `json:"lease_grants"`
	LeaseExpiries   int64 `json:"lease_expiries"`
	LeaseSteals     int64 `json:"lease_steals"`

	// StragglerLagS is the current straggler threshold:
	// max(floor, factor x median last-heartbeat age) over the fleet.
	StragglerLagS float64 `json:"straggler_lag_s"`

	Workers []FleetWorkerStatus `json:"workers,omitempty"`
	Leases  []LeaseStatus       `json:"leases,omitempty"`
}

// Status snapshots the fleet for the /status endpoint.
func (c *Coordinator) Status() FleetStatus {
	ts := c.table.Status()
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	elapsed := now.Sub(c.start).Seconds()
	st := FleetStatus{
		Done: ts.DoneConfigs, Failed: c.failed, Total: c.spec.Samples,
		ElapsedSec: elapsed, Cycles: c.cycles,
		LeasesPending: ts.Pending, LeasesActive: ts.Active, LeasesCompleted: ts.Completed,
		LeaseGrants: ts.Granted, LeaseExpiries: ts.Expired, LeaseSteals: ts.Stolen,
		Leases: ts.Leases,
	}
	st.RowsPerSec, st.ETASec = c.progress(ts.DoneConfigs, elapsed)
	for name, fw := range c.workers {
		ws := FleetWorkerStatus{Name: name, Rows: fw.rows, LastSeenS: now.Sub(fw.lastSeen).Seconds()}
		if d := fw.lastSeen.Sub(fw.first).Seconds(); d > 0 {
			ws.RowsPerSec = float64(fw.rows) / d
		}
		if fw.tel != nil {
			ws.BusyS = float64(fw.tel.BusyNs) / 1e9
			ws.UpS = float64(fw.tel.UpNs) / 1e9
			if fw.tel.UpNs > 0 {
				ws.BusyFrac = float64(fw.tel.BusyNs) / float64(fw.tel.UpNs)
			}
		}
		st.Workers = append(st.Workers, ws)
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].Name < st.Workers[j].Name })
	ages := make([]float64, len(st.Workers))
	for i, ws := range st.Workers {
		ages[i] = ws.LastSeenS
	}
	flags, threshold := FlagStragglers(ages, StragglerFactor, StragglerFloorS)
	st.StragglerLagS = threshold
	for i := range st.Workers {
		st.Workers[i].Straggler = flags[i]
	}
	return st
}
