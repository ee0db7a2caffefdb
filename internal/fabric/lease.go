package fabric

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// The lease table is the coordinator's core state machine. A lease covers a
// contiguous range [lo, hi) of the run's global config-index space and is
// in exactly one of three states:
//
//	pending  queued, unassigned (fresh, or requeued after an expiry)
//	active   assigned to one worker, with a heartbeat deadline
//	done     fully uploaded (cursor reached hi)
//
// Transitions:
//
//	pending ── Acquire ──────────────→ active   (epoch++, deadline set)
//	active  ── deadline passes ──────→ pending  (cursor kept: uploaded rows
//	                                             survive, only the tail is
//	                                             re-leased)
//	active  ── Advance to cursor==hi → done
//	active  ── steal split ──────────→ active [lo, mid) + pending [mid, hi)
//
// The cursor only moves on Advance, which atomically records the chunk's
// rows; a worker that dies mid-chunk therefore loses only un-uploaded work,
// and the re-granted lease resimulates exactly the rows that never landed.
// Every (re)grant increments the lease's epoch, and Advance/Heartbeat
// reject stale epochs, so a zombie worker whose lease was reassigned can
// never move the cursor or corrupt the journal.
//
// Stealing: when Acquire finds nothing pending but active leases remain,
// it splits the lease with the largest un-started remainder — everything
// past claimed = min(cursor+chunk, hi) is provably un-started, because
// workers simulate exactly one chunk between advances — granting the upper
// half to the idle worker. The straggler keeps its head and learns the
// shrunken hi at its next advance or heartbeat.

// Lease table errors, surfaced to workers as HTTP statuses.
var (
	// ErrStaleLease rejects a request whose (id, epoch) no longer names a
	// live assignment: the lease expired and was reassigned, was stolen
	// whole, or is already done.
	ErrStaleLease = errors.New("fabric: stale lease")
	// ErrUnknownLease rejects a lease id the table never issued.
	ErrUnknownLease = errors.New("fabric: unknown lease")
	// ErrBadAdvance rejects a cursor move that is not strictly forward or
	// overruns the lease bound.
	ErrBadAdvance = errors.New("fabric: bad advance")
)

type leaseState int8

const (
	leasePending leaseState = iota
	leaseActive
	leaseDone
)

func (s leaseState) String() string {
	switch s {
	case leasePending:
		return "pending"
	case leaseActive:
		return "active"
	case leaseDone:
		return "done"
	}
	return "?"
}

// tableLease is one lease's table entry.
type tableLease struct {
	id       int
	lo, hi   int // [lo, hi) global index range; hi shrinks on steal
	cursor   int // first index not yet uploaded
	epoch    int // assignment generation; the table's epoch0 = never granted
	state    leaseState
	worker   string
	deadline time.Time
	grants   int // times granted (1 + reassignments)
}

// Table is the coordinator's lease table. All methods are safe for
// concurrent use; time is injected per call so tests can drive expiry
// deterministically.
type Table struct {
	mu     sync.Mutex
	leases []*tableLease
	chunk  int
	expiry time.Duration
	// epoch0 is every lease's epoch before its first grant; journaled
	// counts the configurations done before the table was built.
	epoch0    int
	journaled int

	granted, expired, stolen, completed int64
}

// NewTable partitions the index space [0, samples), less the indices in
// journaled, into pending leases of at most leaseSize contiguous configs;
// with nothing journaled that is ceil(samples/leaseSize) leases. chunk is
// the advance granularity (and minimum steal split), expiry the heartbeat
// deadline, and epoch0 the epoch every lease starts from (its first grant
// is epoch0+1).
func NewTable(samples, leaseSize, chunk int, expiry time.Duration, journaled map[int]bool, epoch0 int) (*Table, error) {
	if samples <= 0 {
		return nil, fmt.Errorf("fabric: table over %d samples", samples)
	}
	if leaseSize <= 0 || chunk <= 0 || chunk > leaseSize {
		return nil, fmt.Errorf("fabric: lease size %d / chunk %d out of range", leaseSize, chunk)
	}
	if expiry <= 0 {
		return nil, fmt.Errorf("fabric: non-positive expiry %s", expiry)
	}
	t := &Table{chunk: chunk, expiry: expiry, epoch0: epoch0}
	for lo := 0; lo < samples; {
		if journaled[lo] {
			t.journaled++
			lo++
			continue
		}
		hi := lo + 1
		for hi < samples && hi-lo < leaseSize && !journaled[hi] {
			hi++
		}
		t.newLease(lo, hi)
		lo = hi
	}
	return t, nil
}

// newLease appends a pending lease over [lo, hi). Caller holds mu or owns
// the table.
func (t *Table) newLease(lo, hi int) *tableLease {
	l := &tableLease{id: len(t.leases), lo: lo, hi: hi, cursor: lo, epoch: t.epoch0}
	t.leases = append(t.leases, l)
	return l
}

// LeaseEvent records one state transition for the coordinator's runlog.
type LeaseEvent struct {
	Event  string // grant, advance, complete, expire, steal
	Lease  int
	Epoch  int
	Worker string
	Lo, Hi int
	Cursor int
}

// ExpireStale requeues every active lease whose deadline has passed,
// returning one event per expiry. The cursor is kept: rows uploaded before
// the worker died stay journaled, and only [cursor, hi) is re-leased.
func (t *Table) ExpireStale(now time.Time) []LeaseEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.expireLocked(now)
}

func (t *Table) expireLocked(now time.Time) []LeaseEvent {
	var evs []LeaseEvent
	for _, l := range t.leases {
		if l.state == leaseActive && now.After(l.deadline) {
			l.state = leasePending
			t.expired++
			evs = append(evs, LeaseEvent{Event: "expire", Lease: l.id, Epoch: l.epoch,
				Worker: l.worker, Lo: l.lo, Hi: l.hi, Cursor: l.cursor})
			l.worker = ""
		}
	}
	return evs
}

// Acquire grants a lease to worker: the lowest-id pending lease if any,
// otherwise a steal split of the active lease with the largest un-started
// remainder. done reports the whole run complete; a nil lease with done
// false means nothing is grantable right now (retry after a poll
// interval). Events cover any expiries the call performed plus the grant
// or steal itself.
func (t *Table) Acquire(worker string, now time.Time) (lease *Lease, done bool, events []LeaseEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	events = t.expireLocked(now)

	var pick *tableLease
	for _, l := range t.leases {
		if l.state == leasePending {
			pick = l
			break
		}
	}
	if pick == nil {
		if t.doneLocked() {
			return nil, true, events
		}
		// Steal: split the active lease with the largest provably
		// un-started tail, if it is worth at least two chunks.
		var victim *tableLease
		best := 2 * t.chunk
		for _, l := range t.leases {
			if l.state != leaseActive {
				continue
			}
			if rem := l.hi - t.claimed(l); rem >= best {
				victim, best = l, rem
			}
		}
		if victim == nil {
			return nil, false, events
		}
		claimed := t.claimed(victim)
		mid := claimed + (victim.hi-claimed)/2
		stolen := t.newLease(mid, victim.hi)
		victim.hi = mid
		t.stolen++
		events = append(events, LeaseEvent{Event: "steal", Lease: victim.id, Epoch: victim.epoch,
			Worker: victim.worker, Lo: stolen.lo, Hi: stolen.hi, Cursor: victim.cursor})
		pick = stolen
	}

	pick.state = leaseActive
	pick.epoch++
	pick.worker = worker
	pick.deadline = now.Add(t.expiry)
	pick.grants++
	t.granted++
	events = append(events, LeaseEvent{Event: "grant", Lease: pick.id, Epoch: pick.epoch,
		Worker: worker, Lo: pick.cursor, Hi: pick.hi, Cursor: pick.cursor})
	return &Lease{
		ID:       pick.id,
		Epoch:    pick.epoch,
		Lo:       pick.cursor,
		Hi:       pick.hi,
		Chunk:    t.chunk,
		ExpiryMS: t.expiry.Milliseconds(),
	}, false, events
}

// claimed returns the first index of l that is provably un-started: the
// worker simulates exactly one chunk past its cursor between advances.
// Caller holds mu.
func (t *Table) claimed(l *tableLease) int {
	c := l.cursor + t.chunk
	if c > l.hi {
		c = l.hi
	}
	return c
}

// Advance moves the lease cursor to cursor and refreshes the deadline.
// commit, if non-nil, runs under the table lock after validation but
// before any state changes — the coordinator journals the chunk's rows
// there, so a commit error leaves the lease untouched and the rows are
// either fully recorded or not at all. Returns the lease's current hi
// (shrunk by any steal) and whether it is now done.
func (t *Table) Advance(id, epoch int, worker string, cursor int, now time.Time, commit func(lo, prevCursor, hi int) error) (hi int, done bool, ev []LeaseEvent, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, err := t.liveLocked(id, epoch, worker)
	if err != nil {
		return 0, false, nil, err
	}
	if cursor <= l.cursor || cursor > l.hi {
		return 0, false, nil, fmt.Errorf("%w: cursor %d outside (%d, %d]", ErrBadAdvance, cursor, l.cursor, l.hi)
	}
	if commit != nil {
		if err := commit(l.lo, l.cursor, cursor); err != nil {
			return 0, false, nil, err
		}
	}
	prev := l.cursor
	l.cursor = cursor
	l.deadline = now.Add(t.expiry)
	ev = append(ev, LeaseEvent{Event: "advance", Lease: l.id, Epoch: l.epoch,
		Worker: worker, Lo: prev, Hi: l.hi, Cursor: cursor})
	if l.cursor >= l.hi {
		l.state = leaseDone
		t.completed++
		ev = append(ev, LeaseEvent{Event: "complete", Lease: l.id, Epoch: l.epoch,
			Worker: worker, Lo: l.lo, Hi: l.hi, Cursor: l.cursor})
		return l.hi, true, ev, nil
	}
	return l.hi, false, ev, nil
}

// Heartbeat refreshes the lease deadline and returns its current hi.
func (t *Table) Heartbeat(id, epoch int, worker string, now time.Time) (hi int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, err := t.liveLocked(id, epoch, worker)
	if err != nil {
		return 0, err
	}
	l.deadline = now.Add(t.expiry)
	return l.hi, nil
}

// liveLocked resolves (id, epoch, worker) to the active lease it names.
func (t *Table) liveLocked(id, epoch int, worker string) (*tableLease, error) {
	if id < 0 || id >= len(t.leases) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownLease, id)
	}
	l := t.leases[id]
	if l.state != leaseActive || l.epoch != epoch || l.worker != worker {
		return nil, fmt.Errorf("%w: lease %d is %s (epoch %d, worker %q), request has epoch %d worker %q",
			ErrStaleLease, id, l.state, l.epoch, l.worker, epoch, worker)
	}
	return l, nil
}

// Done reports whether every lease has completed.
func (t *Table) Done() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.doneLocked()
}

func (t *Table) doneLocked() bool {
	for _, l := range t.leases {
		if l.state != leaseDone {
			return false
		}
	}
	return true
}

// Counts returns the per-state lease counts and the number of done
// configurations, journaled before the table was built or uploaded since —
// the cheap snapshot behind the coordinator's gauges.
func (t *Table) Counts() (pending, active, completed, doneConfigs int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	doneConfigs = t.journaled
	for _, l := range t.leases {
		switch l.state {
		case leasePending:
			pending++
		case leaseActive:
			active++
		case leaseDone:
			completed++
		}
		doneConfigs += l.cursor - l.lo
	}
	return
}

// LeaseStatus is one lease's row in the coordinator status view.
type LeaseStatus struct {
	ID     int    `json:"id"`
	State  string `json:"state"`
	Worker string `json:"worker,omitempty"`
	Lo     int    `json:"lo"`
	Hi     int    `json:"hi"`
	Cursor int    `json:"cursor"`
	Epoch  int    `json:"epoch"`
	Grants int    `json:"grants"`
}

// TableStatus snapshots the table for /status and the final summary.
type TableStatus struct {
	Pending, Active, Completed int
	Granted, Expired, Stolen   int64
	// DoneConfigs is the number of done configurations: those journaled
	// before the table was built plus cursor-lo over all leases.
	DoneConfigs int
	Leases      []LeaseStatus
}

// Status snapshots the lease table.
func (t *Table) Status() TableStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := TableStatus{Granted: t.granted, Expired: t.expired, Stolen: t.stolen, DoneConfigs: t.journaled}
	for _, l := range t.leases {
		switch l.state {
		case leasePending:
			st.Pending++
		case leaseActive:
			st.Active++
		case leaseDone:
			st.Completed++
		}
		st.DoneConfigs += l.cursor - l.lo
		st.Leases = append(st.Leases, LeaseStatus{
			ID: l.id, State: l.state.String(), Worker: l.worker,
			Lo: l.lo, Hi: l.hi, Cursor: l.cursor, Epoch: l.epoch, Grants: l.grants,
		})
	}
	sort.Slice(st.Leases, func(i, j int) bool { return st.Leases[i].ID < st.Leases[j].ID })
	return st
}
