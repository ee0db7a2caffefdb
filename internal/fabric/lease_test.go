package fabric

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func mustTable(t *testing.T, samples, leaseSize int, expiry time.Duration) *Table {
	t.Helper()
	tab, err := NewTable(samples, leaseSize, expiry, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// noCommit is a commit callback that always succeeds.
func noCommit(lo, hi int) error { return nil }

func TestTablePartition(t *testing.T) {
	tab := mustTable(t, 100, 32, time.Minute)
	st := tab.Status()
	if len(st.Leases) != 4 {
		t.Fatalf("100 samples / lease 32 = %d leases, want 4", len(st.Leases))
	}
	wantRanges := [][2]int{{0, 32}, {32, 64}, {64, 96}, {96, 100}}
	for i, l := range st.Leases {
		if l.Lo != wantRanges[i][0] || l.Hi != wantRanges[i][1] {
			t.Errorf("lease %d = [%d, %d), want %v", i, l.Lo, l.Hi, wantRanges[i])
		}
		if l.State != "pending" {
			t.Errorf("lease %d state %s", i, l.State)
		}
	}
}

// TestTablePartitionSkipsJournaled: a restarted table leases only the
// indices its journal lacks, in runs of at most leaseSize, counts the rest
// as done, and grants above its starting epoch.
func TestTablePartitionSkipsJournaled(t *testing.T) {
	journaled := map[int]bool{0: true, 1: true, 5: true, 9: true}
	tab, err := NewTable(12, 3, time.Minute, journaled, 1000)
	if err != nil {
		t.Fatal(err)
	}
	st := tab.Status()
	wantRanges := [][2]int{{2, 5}, {6, 9}, {10, 12}}
	if len(st.Leases) != len(wantRanges) || st.DoneConfigs != 4 {
		t.Fatalf("leases %+v, done %d; want %v and 4 done", st.Leases, st.DoneConfigs, wantRanges)
	}
	for i, l := range st.Leases {
		if l.Lo != wantRanges[i][0] || l.Hi != wantRanges[i][1] {
			t.Errorf("lease %d = [%d, %d), want %v", i, l.Lo, l.Hi, wantRanges[i])
		}
	}
	if lease, _, _ := tab.Acquire("w1", t0); lease.Epoch != 1001 {
		t.Errorf("first grant epoch %d, want 1001", lease.Epoch)
	}
	full, err := NewTable(2, 4, time.Minute, map[int]bool{0: true, 1: true}, 1000)
	if err != nil || !full.Done() {
		t.Errorf("fully journaled table: done %v, err %v", full != nil && full.Done(), err)
	}
}

func TestTableRejectsBadGeometry(t *testing.T) {
	for _, c := range []struct{ samples, lease int }{
		{0, 8}, {-1, 8}, {10, 0}, {10, -4},
	} {
		if _, err := NewTable(c.samples, c.lease, time.Minute, nil, 0); err == nil {
			t.Errorf("NewTable(%d, %d) accepted", c.samples, c.lease)
		}
	}
	if _, err := NewTable(10, 8, 0, nil, 0); err == nil {
		t.Error("zero expiry accepted")
	}
}

// TestTableGrantAdvanceComplete: one grant per lease, each completed by
// one commit of exactly its range, and a finished table reports done.
func TestTableGrantAdvanceComplete(t *testing.T) {
	tab := mustTable(t, 10, 5, time.Minute)
	for _, want := range [][2]int{{0, 5}, {5, 10}} {
		lease, done, _ := tab.Acquire("w1", t0)
		if done || lease == nil {
			t.Fatalf("Acquire = %v, done %v", lease, done)
		}
		if lease.Lo != want[0] || lease.Hi != want[1] || lease.Epoch != 1 {
			t.Fatalf("lease = %+v, want [%d, %d) epoch 1", lease, want[0], want[1])
		}
		var lo, hi int
		ev, err := tab.Complete(lease.ID, lease.Epoch, "w1", func(l, h int) error {
			lo, hi = l, h
			return nil
		})
		if err != nil || ev.Event != "complete" || lo != want[0] || hi != want[1] {
			t.Fatalf("complete: event %+v, committed [%d, %d), err %v", ev, lo, hi, err)
		}
		if _, err := tab.Complete(lease.ID, lease.Epoch, "w1", noCommit); !errors.Is(err, ErrStaleLease) {
			t.Errorf("second complete of lease %d: %v", lease.ID, err)
		}
	}
	if !tab.Done() {
		t.Error("table not done after all leases complete")
	}
	if st := tab.Status(); st.DoneConfigs != 10 || st.Completed != 2 || st.Granted != 2 {
		t.Errorf("status = %+v", st)
	}
	if _, done, _ := tab.Acquire("w2", t0); !done {
		t.Error("Acquire on a finished table did not report done")
	}
}

func TestTableAdvanceValidation(t *testing.T) {
	tab := mustTable(t, 20, 10, time.Minute)
	lease, _, _ := tab.Acquire("w1", t0)

	// Wrong epoch, wrong worker, unknown lease.
	if _, err := tab.Complete(lease.ID, lease.Epoch+1, "w1", noCommit); !errors.Is(err, ErrStaleLease) {
		t.Errorf("stale epoch: %v", err)
	}
	if _, err := tab.Complete(lease.ID, lease.Epoch, "w2", noCommit); !errors.Is(err, ErrStaleLease) {
		t.Errorf("wrong worker: %v", err)
	}
	if _, err := tab.Complete(99, 1, "w1", noCommit); !errors.Is(err, ErrUnknownLease) {
		t.Errorf("unknown lease: %v", err)
	}
	// A failing commit leaves the lease active.
	commitErr := fmt.Errorf("journal full")
	if _, err := tab.Complete(lease.ID, lease.Epoch, "w1", func(lo, hi int) error { return commitErr }); !errors.Is(err, commitErr) {
		t.Errorf("commit error not surfaced: %v", err)
	}
	if st := tab.Status(); st.Leases[lease.ID].State != "active" || st.DoneConfigs != 0 {
		t.Errorf("lease moved despite commit failure: %+v, %d done", st.Leases[lease.ID], st.DoneConfigs)
	}
	// And the same upload succeeds afterwards.
	if _, err := tab.Complete(lease.ID, lease.Epoch, "w1", noCommit); err != nil {
		t.Errorf("retry after commit failure: %v", err)
	}
}

// TestTableExpiryReassignsTail pins the crash-recovery path: a worker dies
// holding a lease; after expiry the whole lease is re-granted to another
// worker with a bumped epoch, and the zombie's requests are rejected.
func TestTableExpiryReassignsTail(t *testing.T) {
	tab := mustTable(t, 10, 10, time.Minute)
	lease, _, _ := tab.Acquire("w1", t0)

	// Before the deadline nothing expires and another worker must wait.
	if l2, done, _ := tab.Acquire("w2", t0.Add(30*time.Second)); l2 != nil || done {
		t.Fatalf("early acquire got %+v done %v", l2, done)
	}

	// Past the deadline the same acquire expires and re-grants the lease.
	late := t0.Add(2 * time.Minute)
	l2, done, events := tab.Acquire("w2", late)
	if done || l2 == nil {
		t.Fatalf("late acquire got nil lease, done %v", done)
	}
	if l2.ID != lease.ID || l2.Lo != 0 || l2.Hi != 10 || l2.Epoch != lease.Epoch+1 {
		t.Fatalf("re-grant = %+v, want id %d [0, 10) epoch %d", l2, lease.ID, lease.Epoch+1)
	}
	var kinds []string
	for _, ev := range events {
		kinds = append(kinds, ev.Event)
	}
	if len(kinds) != 2 || kinds[0] != "expire" || kinds[1] != "grant" {
		t.Errorf("events = %v, want [expire grant]", kinds)
	}

	// The zombie's upload and heartbeat are rejected; the new holder's work.
	if _, err := tab.Complete(lease.ID, lease.Epoch, "w1", noCommit); !errors.Is(err, ErrStaleLease) {
		t.Errorf("zombie complete: %v", err)
	}
	if err := tab.Heartbeat(lease.ID, lease.Epoch, "w1", late); !errors.Is(err, ErrStaleLease) {
		t.Errorf("zombie heartbeat: %v", err)
	}
	if _, err := tab.Complete(l2.ID, l2.Epoch, "w2", noCommit); err != nil {
		t.Fatalf("new holder complete: %v", err)
	}
	if !tab.Done() {
		t.Error("table not done")
	}
}

func TestTableHeartbeatExtendsDeadline(t *testing.T) {
	tab := mustTable(t, 10, 10, time.Minute)
	lease, _, _ := tab.Acquire("w1", t0)
	if err := tab.Heartbeat(lease.ID, lease.Epoch, "w1", t0.Add(50*time.Second)); err != nil {
		t.Fatal(err)
	}
	// 100s after grant but only 50s after the heartbeat: still held.
	if evs := tab.ExpireStale(t0.Add(100 * time.Second)); len(evs) != 0 {
		t.Errorf("heartbeated lease expired: %v", evs)
	}
	if evs := tab.ExpireStale(t0.Add(3 * time.Minute)); len(evs) != 1 {
		t.Errorf("stale lease not expired: %v", evs)
	}
}

// TestTableConcurrentFleet hammers one table from many goroutines playing
// workers — acquire, heartbeat, complete, interleaved with expiry sweeps —
// and checks the invariant the fabric's byte-identity rests on: every index
// is committed, each commit covers exactly one lease's range, and a lease
// completes once, however often it expired and was re-granted. Run with
// -race this is the lease table's data-race exercise.
func TestTableConcurrentFleet(t *testing.T) {
	const samples = 400
	tab := mustTable(t, samples, 4, 50*time.Millisecond)

	var mu sync.Mutex
	committed := make(map[int]int) // index -> commits
	commit := func(lo, hi int) error {
		mu.Lock()
		defer mu.Unlock()
		for i := lo; i < hi; i++ {
			committed[i]++
		}
		return nil
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			name := fmt.Sprintf("w%d", id)
			for {
				lease, done, _ := tab.Acquire(name, time.Now())
				if done {
					return
				}
				if lease == nil {
					time.Sleep(time.Millisecond)
					continue
				}
				if lease.Hi-lease.Lo > 4 {
					t.Errorf("lease %+v wider than the lease size", lease)
				}
				_ = tab.Heartbeat(lease.ID, lease.Epoch, name, time.Now())
				// Workers 0 and 1 are slow: they stall inside their lease
				// so expiry and re-grants trigger under load.
				if id < 2 {
					time.Sleep(60 * time.Millisecond)
				}
				// A stale rejection (expired or reassigned) drops the lease.
				_, _ = tab.Complete(lease.ID, lease.Epoch, name, commit)
			}
		}(w)
	}
	// Expiry sweeper races the workers.
	stop := make(chan struct{})
	go func() {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				tab.ExpireStale(now)
			}
		}
	}()
	wg.Wait()
	close(stop)

	if !tab.Done() {
		t.Fatal("table not done")
	}
	for i := 0; i < samples; i++ {
		if committed[i] != 1 {
			t.Fatalf("index %d committed %d times, want once", i, committed[i])
		}
	}
	st := tab.Status()
	if st.Completed != samples/4 || st.Granted < int64(st.Completed) || st.DoneConfigs != samples {
		t.Errorf("status: %d completed, %d granted, %d configs done", st.Completed, st.Granted, st.DoneConfigs)
	}
}
