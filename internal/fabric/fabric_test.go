package fabric

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
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

// TestFleetByteIdentity is the fault-injection harness the fabric's
// correctness bar rests on: coordinator plus N in-process workers over
// httptest, workers killed mid-lease at fixed chunk boundaries, leases
// expiring and reassigned — and the merged CSV must still be byte-identical
// to the single-process reference, at every fleet size.
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
	}{
		{name: "fleet1", fleet: 1},
		{name: "fleet2", fleet: 2},
		{name: "fleet4", fleet: 4},
		{name: "fleet1-kill", fleet: 1, kills: []int{2}},
		{name: "fleet2-kill1", fleet: 2, kills: []int{2}},
		{name: "fleet4-kill2", fleet: 4, kills: []int{1, 3}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			coord, srv := newTestCoordinator(t, CoordConfig{
				Spec: NewSpec(seed, samples, false),
				// Small leases and chunks so every fleet size exercises
				// multiple grants; short expiry so reassignment happens
				// within the test's patience (but roomy enough that loaded
				// workers under the race detector don't thrash on expiry).
				LeaseSize: 4, Chunk: 2, Expiry: time.Second,
			})
			stopSweep := coord.StartExpirySweep(50 * time.Millisecond)
			defer stopSweep()

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()

			errInjected := fmt.Errorf("injected kill")
			var fleetChunks atomic.Int64
			onChunk := func(lease, cursor int) error {
				if slices.Contains(tc.kills, int(fleetChunks.Add(1))) {
					return errInjected
				}
				return nil
			}
			var wg sync.WaitGroup
			errs := make([]error, tc.fleet)
			for i := 0; i < tc.fleet; i++ {
				wg.Add(1)
				go func(slot int) {
					defer wg.Done()
					// One simulation thread per worker: the interesting
					// concurrency is between workers, and oversubscribing
					// the host's cores 4x just slows every fleet down.
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
						// The kill leaves a lease mid-flight; a
						// replacement worker joins, as a respawned node
						// would, and must pick up the expired tail.
						cfg.Name = fmt.Sprintf("w%d-respawn%d", slot, n)
						err = RunWorker(ctx, cfg)
					}
					errs[slot] = err
				}(i)
			}
			wg.Wait()
			for slot, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", slot, err)
				}
			}
			if err := coord.Wait(ctx); err != nil {
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
			if !bytes.Equal(got.Bytes(), ref) {
				t.Errorf("fleet CSV differs from single-process reference (%d vs %d bytes)",
					got.Len(), len(ref))
			}
			if len(tc.kills) > 0 {
				if st := coord.Status(); st.LeaseExpiries == 0 {
					t.Error("kill schedule ran but no lease ever expired")
				}
			}
		})
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
