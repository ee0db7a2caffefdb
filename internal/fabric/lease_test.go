package fabric

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func mustTable(t *testing.T, samples, leaseSize, chunk int, expiry time.Duration) *Table {
	t.Helper()
	tab, err := NewTable(samples, leaseSize, chunk, expiry, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// noCommit is a commit callback that always succeeds.
func noCommit(lo, prev, hi int) error { return nil }

func TestTablePartition(t *testing.T) {
	tab := mustTable(t, 100, 32, 8, time.Minute)
	st := tab.Status()
	if len(st.Leases) != 4 {
		t.Fatalf("100 samples / lease 32 = %d leases, want 4", len(st.Leases))
	}
	wantRanges := [][2]int{{0, 32}, {32, 64}, {64, 96}, {96, 100}}
	for i, l := range st.Leases {
		if l.Lo != wantRanges[i][0] || l.Hi != wantRanges[i][1] {
			t.Errorf("lease %d = [%d, %d), want %v", i, l.Lo, l.Hi, wantRanges[i])
		}
		if l.State != "pending" || l.Cursor != l.Lo {
			t.Errorf("lease %d state %s cursor %d", i, l.State, l.Cursor)
		}
	}
}

// TestTablePartitionSkipsJournaled: a restarted table leases only the
// indices its journal lacks, in runs of at most leaseSize, counts the rest
// as done, and grants above its starting epoch.
func TestTablePartitionSkipsJournaled(t *testing.T) {
	journaled := map[int]bool{0: true, 1: true, 5: true, 9: true}
	tab, err := NewTable(12, 3, 1, time.Minute, journaled, 1000)
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
	full, err := NewTable(2, 4, 1, time.Minute, map[int]bool{0: true, 1: true}, 1000)
	if err != nil || !full.Done() {
		t.Errorf("fully journaled table: done %v, err %v", full != nil && full.Done(), err)
	}
}

func TestTableRejectsBadGeometry(t *testing.T) {
	for _, c := range []struct{ samples, lease, chunk int }{
		{0, 8, 4}, {-1, 8, 4}, {10, 0, 4}, {10, 8, 0}, {10, 4, 8},
	} {
		if _, err := NewTable(c.samples, c.lease, c.chunk, time.Minute, nil, 0); err == nil {
			t.Errorf("NewTable(%d, %d, %d) accepted", c.samples, c.lease, c.chunk)
		}
	}
	if _, err := NewTable(10, 8, 4, 0, nil, 0); err == nil {
		t.Error("zero expiry accepted")
	}
}

func TestTableGrantAdvanceComplete(t *testing.T) {
	tab := mustTable(t, 10, 10, 5, time.Minute)
	lease, done, _ := tab.Acquire("w1", t0)
	if done || lease == nil {
		t.Fatalf("Acquire = %v, done %v", lease, done)
	}
	if lease.Lo != 0 || lease.Hi != 10 || lease.Epoch != 1 || lease.Chunk != 5 {
		t.Fatalf("lease = %+v", lease)
	}

	hi, leaseDone, _, err := tab.Advance(lease.ID, lease.Epoch, "w1", 5, t0, noCommit)
	if err != nil || leaseDone || hi != 10 {
		t.Fatalf("first advance: hi %d done %v err %v", hi, leaseDone, err)
	}
	hi, leaseDone, _, err = tab.Advance(lease.ID, lease.Epoch, "w1", 10, t0, noCommit)
	if err != nil || !leaseDone || hi != 10 {
		t.Fatalf("final advance: hi %d done %v err %v", hi, leaseDone, err)
	}
	if !tab.Done() {
		t.Error("table not done after all leases complete")
	}
	if _, done, _ := tab.Acquire("w2", t0); !done {
		t.Error("Acquire on a finished table did not report done")
	}
}

func TestTableAdvanceValidation(t *testing.T) {
	tab := mustTable(t, 20, 10, 5, time.Minute)
	lease, _, _ := tab.Acquire("w1", t0)

	// Wrong epoch, wrong worker, unknown lease.
	if _, _, _, err := tab.Advance(lease.ID, lease.Epoch+1, "w1", 5, t0, noCommit); !errors.Is(err, ErrStaleLease) {
		t.Errorf("stale epoch: %v", err)
	}
	if _, _, _, err := tab.Advance(lease.ID, lease.Epoch, "w2", 5, t0, noCommit); !errors.Is(err, ErrStaleLease) {
		t.Errorf("wrong worker: %v", err)
	}
	if _, _, _, err := tab.Advance(99, 1, "w1", 5, t0, noCommit); !errors.Is(err, ErrUnknownLease) {
		t.Errorf("unknown lease: %v", err)
	}
	// Cursor not strictly forward / out of bounds.
	if _, _, _, err := tab.Advance(lease.ID, lease.Epoch, "w1", 0, t0, noCommit); !errors.Is(err, ErrBadAdvance) {
		t.Errorf("zero cursor: %v", err)
	}
	if _, _, _, err := tab.Advance(lease.ID, lease.Epoch, "w1", 11, t0, noCommit); !errors.Is(err, ErrBadAdvance) {
		t.Errorf("overrun cursor: %v", err)
	}
	// A failing commit leaves the lease untouched.
	commitErr := fmt.Errorf("journal full")
	if _, _, _, err := tab.Advance(lease.ID, lease.Epoch, "w1", 5, t0, func(lo, prev, hi int) error { return commitErr }); !errors.Is(err, commitErr) {
		t.Errorf("commit error not surfaced: %v", err)
	}
	if st := tab.Status(); st.Leases[lease.ID].Cursor != 0 {
		t.Errorf("cursor moved despite commit failure: %d", st.Leases[lease.ID].Cursor)
	}
	// And the same advance succeeds afterwards.
	if _, _, _, err := tab.Advance(lease.ID, lease.Epoch, "w1", 5, t0, noCommit); err != nil {
		t.Errorf("retry after commit failure: %v", err)
	}
}

// TestTableExpiryReassignsTail pins the crash-recovery path: a worker that
// uploaded 5 of 10 configs dies; after expiry the lease is re-granted to
// another worker from the cursor, with a bumped epoch, and the zombie's
// requests are rejected.
func TestTableExpiryReassignsTail(t *testing.T) {
	tab := mustTable(t, 10, 10, 5, time.Minute)
	lease, _, _ := tab.Acquire("w1", t0)
	if _, _, _, err := tab.Advance(lease.ID, lease.Epoch, "w1", 5, t0, noCommit); err != nil {
		t.Fatal(err)
	}

	// Before the deadline nothing expires and another worker must wait.
	if l2, done, _ := tab.Acquire("w2", t0.Add(30*time.Second)); l2 != nil || done {
		t.Fatalf("early acquire got %+v done %v", l2, done)
	}

	// Past the deadline the same acquire expires and re-grants from the
	// cursor: only [5, 10) is re-leased.
	late := t0.Add(2 * time.Minute)
	l2, done, events := tab.Acquire("w2", late)
	if done || l2 == nil {
		t.Fatalf("late acquire got nil lease, done %v", done)
	}
	if l2.ID != lease.ID || l2.Lo != 5 || l2.Hi != 10 || l2.Epoch != lease.Epoch+1 {
		t.Fatalf("re-grant = %+v, want id %d [5, 10) epoch %d", l2, lease.ID, lease.Epoch+1)
	}
	var kinds []string
	for _, ev := range events {
		kinds = append(kinds, ev.Event)
	}
	if len(kinds) != 2 || kinds[0] != "expire" || kinds[1] != "grant" {
		t.Errorf("events = %v, want [expire grant]", kinds)
	}

	// The zombie's advance and heartbeat are rejected; the new holder's work.
	if _, _, _, err := tab.Advance(lease.ID, lease.Epoch, "w1", 10, late, noCommit); !errors.Is(err, ErrStaleLease) {
		t.Errorf("zombie advance: %v", err)
	}
	if _, err := tab.Heartbeat(lease.ID, lease.Epoch, "w1", late); !errors.Is(err, ErrStaleLease) {
		t.Errorf("zombie heartbeat: %v", err)
	}
	if _, _, _, err := tab.Advance(l2.ID, l2.Epoch, "w2", 10, late, noCommit); err != nil {
		t.Fatalf("new holder advance: %v", err)
	}
	if !tab.Done() {
		t.Error("table not done")
	}
}

func TestTableHeartbeatExtendsDeadline(t *testing.T) {
	tab := mustTable(t, 10, 10, 5, time.Minute)
	lease, _, _ := tab.Acquire("w1", t0)
	if _, err := tab.Heartbeat(lease.ID, lease.Epoch, "w1", t0.Add(50*time.Second)); err != nil {
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

// TestTableStealSplitsLargestTail pins work stealing: with no pending
// leases, an idle worker splits the active lease with the largest
// un-started remainder, and the straggler's next advance reports the
// shrunken hi.
func TestTableStealSplitsLargestTail(t *testing.T) {
	tab := mustTable(t, 64, 64, 4, time.Minute)
	lease, _, _ := tab.Acquire("slow", t0)
	if lease.Lo != 0 || lease.Hi != 64 {
		t.Fatalf("lease = %+v", lease)
	}
	// Slow worker has advanced to 8 and is simulating [8, 12).
	if _, _, _, err := tab.Advance(lease.ID, lease.Epoch, "slow", 8, t0, noCommit); err != nil {
		t.Fatal(err)
	}

	l2, done, events := tab.Acquire("fast", t0)
	if done || l2 == nil {
		t.Fatal("no steal happened")
	}
	// claimed = cursor 8 + chunk 4 = 12; split the tail [12, 64) at its
	// midpoint 38.
	if l2.Lo != 38 || l2.Hi != 64 {
		t.Fatalf("stolen lease = [%d, %d), want [38, 64)", l2.Lo, l2.Hi)
	}
	foundSteal := false
	for _, ev := range events {
		if ev.Event == "steal" {
			foundSteal = true
			if ev.Lease != lease.ID || ev.Lo != 38 || ev.Hi != 64 {
				t.Errorf("steal event = %+v", ev)
			}
		}
	}
	if !foundSteal {
		t.Error("no steal event")
	}

	// The victim's next advance reports the shrunken bound.
	hi, _, _, err := tab.Advance(lease.ID, lease.Epoch, "slow", 12, t0, noCommit)
	if err != nil || hi != 38 {
		t.Fatalf("victim advance: hi %d err %v, want 38", hi, err)
	}
	// Both halves complete the run.
	if _, _, _, err := tab.Advance(lease.ID, lease.Epoch, "slow", 38, t0, noCommit); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := tab.Advance(l2.ID, l2.Epoch, "fast", 64, t0, noCommit); err != nil {
		t.Fatal(err)
	}
	if !tab.Done() {
		t.Error("table not done after both halves")
	}
}

// TestTableStealRequiresTwoChunks pins the split threshold: a tail worth
// less than two chunks is not worth a steal, so the idle worker waits.
func TestTableStealRequiresTwoChunks(t *testing.T) {
	tab := mustTable(t, 16, 16, 8, time.Minute)
	lease, _, _ := tab.Acquire("slow", t0)
	// claimed = 0 + 8; tail [8, 16) is exactly one chunk: no steal.
	if l2, done, _ := tab.Acquire("fast", t0); l2 != nil || done {
		t.Fatalf("steal of a one-chunk tail: %+v", l2)
	}
	_ = lease
}

// TestTableConcurrentFleet hammers one table from many goroutines playing
// workers — acquire, advance, heartbeat, interleaved with expiry sweeps —
// and checks the invariant the fabric's byte-identity rests on: every index
// is committed at least once, and the per-commit ranges never overlap
// within a lease's final journal (re-grants re-commit only un-committed
// tails). Run with -race this is the lease table's data-race exercise.
func TestTableConcurrentFleet(t *testing.T) {
	const samples = 400
	tab := mustTable(t, samples, 32, 4, 50*time.Millisecond)

	var mu sync.Mutex
	committed := make(map[int]int) // index -> commits
	commit := func(lo, prev, hi int) error { return nil }

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
				cursor := lease.Lo
				hi := lease.Hi
				for cursor < hi {
					next := cursor + lease.Chunk
					if next > hi {
						next = hi
					}
					// Workers 0 and 1 are slow: they stall mid-lease so
					// expiry and stealing trigger under load.
					if id < 2 {
						time.Sleep(60 * time.Millisecond)
					}
					from := cursor
					nhi, leaseDone, _, err := tab.Advance(lease.ID, lease.Epoch, name, next, time.Now(), commit)
					if err != nil {
						break // stale: expired or reassigned, drop the lease
					}
					mu.Lock()
					for i := from; i < next; i++ {
						committed[i]++
					}
					mu.Unlock()
					cursor, hi = next, nhi
					if leaseDone {
						break
					}
					_, _ = tab.Heartbeat(lease.ID, lease.Epoch, name, time.Now())
				}
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
		if committed[i] == 0 {
			t.Fatalf("index %d never committed", i)
		}
	}
	st := tab.Status()
	if st.Granted < int64(st.Completed) {
		t.Errorf("granted %d < completed %d", st.Granted, st.Completed)
	}
}
