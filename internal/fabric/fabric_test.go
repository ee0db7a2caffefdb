package fabric

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"armdse/internal/dataset"
	"armdse/internal/orchestrate"
)

// newTestCoordinator builds a coordinator plus its httptest server.
func newTestCoordinator(t *testing.T, cfg CoordConfig) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.Out == "" {
		cfg.Out = filepath.Join(t.TempDir(), "fleet.csv")
	}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	return coord, srv
}

// testClient is a raw protocol client for handcrafted fleet scenarios.
func testClient(srv *httptest.Server, name string) *worker {
	return &worker{cfg: WorkerConfig{Coord: srv.URL, Name: name, Client: srv.Client()}}
}

// fakeRow synthesises a deterministic wire row for protocol-level tests
// that exercise the coordinator without paying for simulation.
func fakeRow(spec Spec, i int) WireRow {
	feats := make([]float64, len(spec.Features))
	for j := range feats {
		feats[j] = float64(i*31+j) + 0.5
	}
	targets := make([]float64, len(spec.Apps))
	for j := range targets {
		targets[j] = float64(1000 + i*7 + j)
	}
	aux := make([]float64, len(spec.Aux))
	for j := range aux {
		aux[j] = float64(i) + float64(j)/8
	}
	return WireRow{Index: i, Cycles: int64(1000 + i), Features: feats, Targets: targets, Aux: aux}
}

// fakeRows builds the advance payload for global indices [lo, hi).
func fakeRows(spec Spec, lo, hi int) []WireRow {
	rows := make([]WireRow, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rows = append(rows, fakeRow(spec, i))
	}
	return rows
}

// expectedFakeCSV materialises what merging all fake rows must produce.
func expectedFakeCSV(t *testing.T, spec Spec) []byte {
	t.Helper()
	d := dataset.NewWithAux(spec.Features, spec.Apps, spec.Aux)
	for i := 0; i < spec.Samples; i++ {
		r := fakeRow(spec, i)
		targets := map[string]float64{}
		for j, app := range spec.Apps {
			targets[app] = r.Targets[j]
		}
		aux := map[string]float64{}
		for j, name := range spec.Aux {
			aux[name] = r.Aux[j]
		}
		if err := d.AppendFull(r.Features, targets, aux); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFleetProtocolStealAndMerge drives the full protocol by hand: one
// slow worker holds the only lease, a fast worker steals its un-started
// tail, both complete, and the merge reproduces the expected dataset
// byte-for-byte with exactly one steal recorded.
func TestFleetProtocolStealAndMerge(t *testing.T) {
	spec := NewSpec(3, 40, false)
	coord, srv := newTestCoordinator(t, CoordConfig{
		Spec: spec, LeaseSize: 40, Chunk: 4, Expiry: time.Minute,
	})
	slow := testClient(srv, "slow")
	fast := testClient(srv, "fast")
	slow.spec, fast.spec = spec, spec

	lease := mustAcquire(t, slow)
	if lease.Lo != 0 || lease.Hi != 40 {
		t.Fatalf("lease = %+v", lease)
	}
	advance := func(w *worker, l *Lease, cursor int, rows []WireRow) AdvanceResponse {
		t.Helper()
		var resp AdvanceResponse
		if _, err := w.post(context.Background(), "/advance", AdvanceRequest{
			LeaseID: l.ID, Epoch: l.Epoch, Worker: w.cfg.Name, Cursor: cursor, Rows: rows,
		}, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Slow worker lands its first chunk, then stalls simulating [4, 8).
	advance(slow, lease, 4, fakeRows(spec, 0, 4))

	// Fast worker's acquire steals the tail: claimed = 4+4 = 8, split of
	// [8, 40) at 24.
	stolen := mustAcquire(t, fast)
	if stolen.Lo != 24 || stolen.Hi != 40 {
		t.Fatalf("stolen lease = [%d, %d), want [24, 40)", stolen.Lo, stolen.Hi)
	}

	// The victim's next advance reports the shrunken bound.
	if resp := advance(slow, lease, 8, fakeRows(spec, 4, 8)); resp.Hi != 24 {
		t.Fatalf("victim hi = %d, want 24", resp.Hi)
	}
	// Both finish their halves.
	for c := 24; c < 40; c += 4 {
		advance(fast, stolen, c+4, fakeRows(spec, c, c+4))
	}
	for c := 8; c < 24; c += 4 {
		advance(slow, lease, c+4, fakeRows(spec, c, c+4))
	}

	// Both observe completion; merge reproduces the dataset exactly.
	if resp, err := slow.acquire(context.Background()); err != nil || !resp.Done {
		t.Fatalf("acquire after completion = %+v, %v", resp, err)
	}
	if err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	ds, failed, err := coord.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Errorf("failed = %d", failed)
	}
	var got bytes.Buffer
	if err := ds.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), expectedFakeCSV(t, spec)) {
		t.Error("merged CSV differs from expected rows")
	}
	st := coord.Status()
	if st.LeaseSteals != 1 || st.LeaseExpiries != 0 {
		t.Errorf("steals %d expiries %d, want 1 and 0", st.LeaseSteals, st.LeaseExpiries)
	}
}

func mustAcquire(t *testing.T, w *worker) *Lease {
	t.Helper()
	resp, err := w.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Lease == nil {
		t.Fatalf("no lease granted: %+v", resp)
	}
	return resp.Lease
}

// TestFleetProtocolRejections pins the coordinator's door checks: run
// identity and column digest mismatches are forbidden, malformed advances
// are bad requests, and a zombie worker whose lease expired is rejected
// with a conflict while its already-committed rows survive.
func TestFleetProtocolRejections(t *testing.T) {
	spec := NewSpec(3, 8, false)
	coord, srv := newTestCoordinator(t, CoordConfig{
		Spec: spec, LeaseSize: 8, Chunk: 2, Expiry: 80 * time.Millisecond,
	})
	_ = coord
	w := testClient(srv, "w1")
	w.spec = spec

	// Mismatched run identity and column layout are rejected outright.
	for _, req := range []LeaseRequest{
		{Worker: "alien", Meta: "seed=99 samples=8 paper=false", Columns: spec.Digest()},
		{Worker: "skewed", Meta: spec.Meta, Columns: "deadbeef"},
	} {
		status, err := w.post(context.Background(), "/lease", req, nil)
		if status != 403 {
			t.Errorf("mismatched worker %q got status %d (%v), want 403", req.Worker, status, err)
		}
	}

	lease := mustAcquire(t, w)
	// Malformed advance: rows don't cover the cursor move.
	status, _ := w.post(context.Background(), "/advance", AdvanceRequest{
		LeaseID: lease.ID, Epoch: lease.Epoch, Worker: "w1", Cursor: 2, Rows: fakeRows(spec, 0, 1),
	}, nil)
	if status != 400 {
		t.Errorf("short advance got %d, want 400", status)
	}
	// A good first chunk lands.
	if _, err := w.post(context.Background(), "/advance", AdvanceRequest{
		LeaseID: lease.ID, Epoch: lease.Epoch, Worker: "w1", Cursor: 2, Rows: fakeRows(spec, 0, 2),
	}, nil); err != nil {
		t.Fatal(err)
	}

	// The worker goes silent past the expiry; another worker's acquire
	// reassigns the tail [2, 8) with a bumped epoch.
	time.Sleep(120 * time.Millisecond)
	w2 := testClient(srv, "w2")
	w2.spec = spec
	lease2 := mustAcquire(t, w2)
	if lease2.ID != lease.ID || lease2.Lo != 2 || lease2.Epoch != lease.Epoch+1 {
		t.Fatalf("re-grant = %+v", lease2)
	}
	// The zombie's upload is rejected as a conflict.
	status, _ = w.post(context.Background(), "/advance", AdvanceRequest{
		LeaseID: lease.ID, Epoch: lease.Epoch, Worker: "w1", Cursor: 4, Rows: fakeRows(spec, 2, 4),
	}, nil)
	if status != 409 {
		t.Errorf("zombie advance got %d, want 409", status)
	}
	status, _ = w.post(context.Background(), "/heartbeat", HeartbeatRequest{
		LeaseID: lease.ID, Epoch: lease.Epoch, Worker: "w1",
	}, nil)
	if status != 409 {
		t.Errorf("zombie heartbeat got %d, want 409", status)
	}
}

// advanceFake uploads fake rows [cursor-len, cursor) on a lease and returns
// the HTTP status.
func advanceFake(t *testing.T, w *worker, l *Lease, prev, cursor int) int {
	t.Helper()
	status, _ := w.post(context.Background(), "/advance", AdvanceRequest{
		LeaseID: l.ID, Epoch: l.Epoch, Worker: w.cfg.Name, Cursor: cursor, Rows: fakeRows(w.spec, prev, cursor),
	}, nil)
	return status
}

// TestFleetRestartStaleWorker: a coordinator restarted on the same Out
// resumes the journal, leases only the missing indices, and starts its
// epochs above the earlier run's, so a worker left over from before the
// crash gets 409 on advance and heartbeat — even once its own name holds
// the same lease id again — while the run completes byte-identically.
func TestFleetRestartStaleWorker(t *testing.T) {
	spec := NewSpec(3, 8, false)
	cfg := CoordConfig{Spec: spec, Out: filepath.Join(t.TempDir(), "fleet.csv"), LeaseSize: 4, Chunk: 2, Expiry: time.Minute}
	_, srv := newTestCoordinator(t, cfg)
	w := testClient(srv, "w1")
	w.spec = spec
	stale := mustAcquire(t, w)
	if status := advanceFake(t, w, stale, 0, 2); status != 200 {
		t.Fatalf("first chunk: %d", status)
	}
	srv.Close() // the coordinator is lost without Merge

	coord, srv := newTestCoordinator(t, cfg)
	if st := coord.Status(); st.Done != 2 || st.Leases[0].Lo != 2 {
		t.Fatalf("restarted status: done %d, leases %+v", st.Done, st.Leases)
	}
	w.cfg.Coord, w.cfg.Client = srv.URL, srv.Client()
	staleCalls := func() {
		t.Helper()
		if status := advanceFake(t, w, stale, 2, 4); status != 409 {
			t.Errorf("pre-restart advance got %d, want 409", status)
		}
		status, _ := w.post(context.Background(), "/heartbeat", HeartbeatRequest{
			LeaseID: stale.ID, Epoch: stale.Epoch, Worker: "w1",
		}, nil)
		if status != 409 {
			t.Errorf("pre-restart heartbeat got %d, want 409", status)
		}
	}
	staleCalls()
	lease := mustAcquire(t, w)
	if lease.ID != stale.ID || lease.Epoch <= stale.Epoch {
		t.Fatalf("re-grant %+v does not supersede pre-restart lease %+v", lease, stale)
	}
	staleCalls()
	for {
		if status := advanceFake(t, w, lease, lease.Lo, lease.Hi); status != 200 {
			t.Fatalf("advance [%d, %d): %d", lease.Lo, lease.Hi, status)
		}
		resp, err := w.acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if resp.Done {
			break
		}
		lease = resp.Lease
	}
	ds, _, err := coord.Merge()
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := ds.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), expectedFakeCSV(t, spec)) {
		t.Error("restarted run's CSV differs from expected rows")
	}
	if err := coord.Cleanup(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(cfg.Out + ".journal"); !os.IsNotExist(err) {
		t.Error("Cleanup left the journal")
	}
}

// TestFleetRestartRefusesForeignJournal: a journal of another run — a
// different stamp, a different column layout, or schema v1 without the
// stall columns — is refused at start and left byte-for-byte as it was,
// torn tail included, and so is the earlier run's runlog.
func TestFleetRestartRefusesForeignJournal(t *testing.T) {
	spec := NewSpec(3, 8, false)
	for name, write := range map[string]func(path string) (*dataset.StreamWriter, error){
		"stamp": func(path string) (*dataset.StreamWriter, error) {
			return dataset.CreateStreamAux(path, spec.Features, spec.Apps, spec.Aux, NewSpec(4, 8, false).Meta)
		},
		"columns": func(path string) (*dataset.StreamWriter, error) {
			return dataset.CreateStreamAux(path, spec.Features, spec.Apps[:1], spec.Aux, spec.Meta)
		},
		"v1": func(path string) (*dataset.StreamWriter, error) {
			return dataset.CreateStreamAux(path, spec.Features, spec.Apps, nil, spec.Meta)
		},
	} {
		t.Run(name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "fleet.csv")
			jw, err := write(out + ".journal")
			if err != nil {
				t.Fatal(err)
			}
			row := fakeRow(spec, 0)
			if err := jw.AppendFull(0, false, row.Features, nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := jw.Close(); err != nil {
				t.Fatal(err)
			}
			tearJournal(t, out+".journal")
			runlog := out + ".runlog.jsonl"
			if err := os.WriteFile(runlog, []byte(`{"type":"meta"}`+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			before := map[string][]byte{}
			for _, f := range []string{out + ".journal", runlog} {
				if before[f], err = os.ReadFile(f); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := NewCoordinator(CoordConfig{Spec: spec, Out: out, Runlog: runlog}); err == nil {
				t.Fatal("foreign journal accepted")
			}
			for f, b := range before {
				if after, err := os.ReadFile(f); err != nil || !bytes.Equal(after, b) {
					t.Errorf("refused restart changed %s (err %v)", filepath.Base(f), err)
				}
			}
		})
	}
}

// TestFleetRejectsConflictingUpload: an advance carrying a row that
// disagrees with the row journaled for its index is a bad request; none of
// the chunk's rows are journaled and the cursor stays where it was.
func TestFleetRejectsConflictingUpload(t *testing.T) {
	spec := NewSpec(3, 8, false)
	coord, srv := newTestCoordinator(t, CoordConfig{Spec: spec, LeaseSize: 4, Chunk: 2, Expiry: time.Minute})
	w := testClient(srv, "w1")
	w.spec = spec
	lease := mustAcquire(t, w)

	// Index 1 is already journaled with different values.
	other := fakeRow(spec, 5)
	if err := coord.journal.AppendFull(1, false, other.Features, nil, nil); err != nil {
		t.Fatal(err)
	}
	if status := advanceFake(t, w, lease, 0, 2); status != 400 {
		t.Errorf("conflicting advance got %d, want 400", status)
	}
	if n := coord.journal.Len(); n != 1 {
		t.Errorf("journal holds %d rows, want only the earlier one", n)
	}
	if st := coord.Status(); st.Done != 0 || st.Leases[0].Cursor != 0 {
		t.Errorf("rejected advance moved the fleet: done %d, lease %+v", st.Done, st.Leases[0])
	}
}

// referenceCSV runs the single-process pipeline — journal, compact, CSV —
// exactly as dsegen does, producing the bytes every fleet run must match.
func referenceCSV(t *testing.T, seed int64, samples int) []byte {
	t.Helper()
	spec := NewSpec(seed, samples, false)
	journal := filepath.Join(t.TempDir(), "ref.journal")
	sw, err := dataset.CreateStreamAux(journal, spec.Features, spec.Apps, spec.Aux, spec.Meta)
	if err != nil {
		t.Fatal(err)
	}
	_, err = orchestrate.Collect(context.Background(), orchestrate.Options{
		Seed: seed, Samples: samples, Suite: spec.Suite(),
		Sink: orchestrate.StreamSink{W: sw},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	ds, _, err := dataset.CompactStream(journal)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loss is how the byte-identity harness loses a coordinator while it serves
// an advance.
type loss int

const (
	// lostUnacked commits the chunk, then crashes before the response.
	lostUnacked loss = iota + 1
	// lostTorn crashes mid-write: the chunk is not committed and the
	// journal is left with a partial record at its tail.
	lostTorn
	// lostWriteError fails the journal write: the advance must be rejected
	// with the cursor unmoved, and the coordinator is restarted.
	lostWriteError
)

// TestFleetByteIdentity is the fault-injection harness the fabric's
// correctness bar rests on: coordinator plus N in-process workers over
// httptest, workers killed mid-lease at fixed chunk boundaries, leases
// expiring and reassigned, and the coordinator itself lost and restarted
// on the same Out — and the merged CSV must still be byte-identical to the
// single-process reference, at every fleet size.
func TestFleetByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulating real workloads; skipped in -short")
	}
	const seed, samples = 11, 12
	ref := referenceCSV(t, seed, samples)

	cases := []struct {
		name  string
		fleet int
		// kills lists fleet-wide chunk ordinals: whichever worker is
		// about to upload the fleet's k-th chunk is killed instead. Every
		// chunk is uploaded before the run completes, so each ordinal up
		// to the run's 6 chunks is sure to fire. A killed worker is
		// respawned, as a replacement node would be.
		kills []int
		// restarts maps fleet-wide advance ordinals, counted as advances
		// arrive across every coordinator of the run, to the way the
		// coordinator serving that advance is lost. The test then stops
		// its server, drops it without Merge, starts a new coordinator on
		// the same Out and respawns the fleet. The run commits exactly 6
		// chunks, each in one arriving advance, so every ordinal up to 6
		// is sure to fire.
		restarts map[int]loss
		// complete marks a run whose last restart finds every row
		// journaled: the new coordinator must be done before any worker
		// joins.
		complete bool
	}{
		{name: "fleet1", fleet: 1},
		{name: "fleet2", fleet: 2},
		{name: "fleet4", fleet: 4},
		{name: "fleet1-kill", fleet: 1, kills: []int{2}},
		{name: "fleet2-kill1", fleet: 2, kills: []int{2}},
		{name: "fleet4-kill2", fleet: 4, kills: []int{1, 3}},
		{name: "restart-unacked", fleet: 2, restarts: map[int]loss{3: lostUnacked}},
		{name: "restart-torn", fleet: 1, restarts: map[int]loss{2: lostTorn}},
		{name: "restart-write-error", fleet: 2, restarts: map[int]loss{4: lostWriteError}},
		{name: "restart-complete", fleet: 2, restarts: map[int]loss{6: lostUnacked}, complete: true},
		{name: "fleet4-kill-restart2", fleet: 4, kills: []int{2},
			restarts: map[int]loss{1: lostTorn, 4: lostUnacked}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := CoordConfig{
				Spec: NewSpec(seed, samples, false),
				Out:  filepath.Join(t.TempDir(), "fleet.csv"),
				// Small leases and chunks so every fleet size exercises
				// multiple grants; short expiry so reassignment happens
				// within the test's patience (but roomy enough that loaded
				// workers under the race detector don't thrash on expiry).
				LeaseSize: 4, Chunk: 2, Expiry: time.Second,
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()

			errInjected := fmt.Errorf("injected kill")
			var fleetChunks, advances atomic.Int64
			onChunk := func(lease, cursor int) error {
				if slices.Contains(tc.kills, int(fleetChunks.Add(1))) {
					return errInjected
				}
				return nil
			}
			for gen := 0; ; gen++ {
				coord, err := NewCoordinator(cfg)
				if err != nil {
					t.Fatalf("coordinator %d: %v", gen, err)
				}
				select {
				case <-coord.Done():
					if !tc.complete {
						t.Fatalf("coordinator %d done before any worker joined", gen)
					}
					assertMerge(t, coord, ref)
					return
				default:
					if tc.complete && gen == len(tc.restarts) {
						t.Fatalf("coordinator %d over a complete journal still has leases", gen)
					}
				}
				// A lost coordinator answers nothing more: every later
				// request is cut off, as by a dead process.
				lost := make(chan loss, 1)
				var dead atomic.Bool
				handler := coord.Handler()
				srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if dead.Load() {
						panic(http.ErrAbortHandler)
					}
					if r.URL.Path == "/advance" {
						if how, ok := tc.restarts[int(advances.Add(1))]; ok && dead.CompareAndSwap(false, true) {
							loseCoordinator(t, coord, how, handler, r)
							lost <- how
							panic(http.ErrAbortHandler) // the response never arrives
						}
					}
					handler.ServeHTTP(w, r)
				}))
				stopSweep := coord.StartExpirySweep(50 * time.Millisecond)
				errs := runFleet(ctx, srv, tc.fleet, onChunk, errInjected)
				var how loss
				var workerErrs []error
				select {
				case how = <-lost:
					// Workers of a lost coordinator fail on their next
					// request; the new coordinator gets a new fleet.
					srv.CloseClientConnections()
					srv.Close()
					<-errs
				case workerErrs = <-errs:
					select {
					case how = <-lost:
					default:
					}
					srv.Close()
				}
				stopSweep()
				if how != 0 {
					if how == lostTorn {
						tearJournal(t, cfg.Out+".journal")
					}
					continue
				}
				for slot, err := range workerErrs {
					if err != nil {
						t.Fatalf("worker %d: %v", slot, err)
					}
				}
				if err := coord.Wait(ctx); err != nil {
					t.Fatal(err)
				}
				assertMerge(t, coord, ref)
				if len(tc.kills) > 0 && len(tc.restarts) == 0 {
					if st := coord.Status(); st.LeaseExpiries == 0 {
						t.Error("kill schedule ran but no lease ever expired")
					}
				}
				return
			}
		})
	}
}

// runFleet starts n workers against srv and returns a channel that yields
// their errors once every one has exited. A worker killed by errInjected is
// respawned, as a replacement node would be.
func runFleet(ctx context.Context, srv *httptest.Server, n int, onChunk func(lease, cursor int) error, errInjected error) <-chan []error {
	done := make(chan []error, 1)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			// One simulation thread per worker: the interesting
			// concurrency is between workers, and oversubscribing the
			// host's cores 4x just slows every fleet down.
			cfg := WorkerConfig{
				Coord:     srv.URL,
				Name:      fmt.Sprintf("w%d", slot),
				Threads:   1,
				PollEvery: 20 * time.Millisecond,
				Client:    srv.Client(),
				OnChunk:   onChunk,
			}
			err := RunWorker(ctx, cfg)
			for n := 1; err == errInjected; n++ {
				// The kill leaves a lease mid-flight; a replacement
				// worker joins and must pick up the expired tail.
				cfg.Name = fmt.Sprintf("w%d-respawn%d", slot, n)
				err = RunWorker(ctx, cfg)
			}
			errs[slot] = err
		}(i)
	}
	go func() {
		wg.Wait()
		done <- errs
	}()
	return done
}

// loseCoordinator plays the coordinator's side of a loss while it serves
// the advance r.
func loseCoordinator(t *testing.T, coord *Coordinator, how loss, handler http.Handler, r *http.Request) {
	switch how {
	case lostUnacked:
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			t.Errorf("advance before the crash: %d %s", rec.Code, rec.Body)
		}
	case lostWriteError:
		// The journal's file fails under the coordinator, as a full or
		// vanished disk would.
		before := coord.Status().Done
		coord.journal.Close()
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, r)
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("advance over a failed journal: %d %s, want 500", rec.Code, rec.Body)
		}
		if after := coord.Status().Done; after != before {
			t.Errorf("failed journal write moved the fleet from %d to %d done", before, after)
		}
	}
}

// tearJournal appends half a record, as a crash mid-write leaves behind.
func tearJournal(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString("7,0,1.5,2"); err != nil {
		t.Fatal(err)
	}
}

// assertMerge merges a completed coordinator and compares the dataset with
// the single-process reference.
func assertMerge(t *testing.T, coord *Coordinator, ref []byte) {
	t.Helper()
	ds, failed, err := coord.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Errorf("failed = %d", failed)
	}
	var got bytes.Buffer
	if err := ds.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), ref) {
		t.Errorf("fleet CSV differs from single-process reference (%d vs %d bytes)", got.Len(), len(ref))
	}
}

// TestFleetStatusAndMetrics checks the observability surface end to end: a
// completed fleet's /status JSON and /metrics exposition carry the lease
// and worker accounting.
func TestFleetStatusAndMetrics(t *testing.T) {
	spec := NewSpec(3, 8, false)
	coord, srv := newTestCoordinator(t, CoordConfig{
		Spec: spec, LeaseSize: 4, Chunk: 4, Expiry: time.Minute,
	})
	w := testClient(srv, "w1")
	w.spec = spec
	for c := 0; c < 8; c += 4 {
		lease := mustAcquire(t, w)
		var resp AdvanceResponse
		if _, err := w.post(context.Background(), "/advance", AdvanceRequest{
			LeaseID: lease.ID, Epoch: lease.Epoch, Worker: "w1",
			Cursor: lease.Hi, Rows: fakeRows(spec, lease.Lo, lease.Hi),
		}, &resp); err != nil || !resp.Done {
			t.Fatalf("advance: %+v, %v", resp, err)
		}
	}
	st := coord.Status()
	if st.Done != 8 || st.LeasesCompleted != 2 || len(st.Workers) != 1 {
		t.Errorf("status = %+v", st)
	}
	if st.Workers[0].Rows != 8 {
		t.Errorf("worker rows = %d", st.Workers[0].Rows)
	}

	httpGet := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	status := httpGet("/status")
	for _, want := range []string{`"done": 8`, `"leases_completed": 2`, `"name": "w1"`} {
		if !strings.Contains(status, want) {
			t.Errorf("/status missing %s:\n%s", want, status)
		}
	}
	metrics := httpGet("/metrics")
	for _, want := range []string{
		"armdse_fabric_rows_total 8",
		"armdse_fabric_leases_completed 2",
		`armdse_fabric_worker_rows_total{worker="w1"} 8`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
