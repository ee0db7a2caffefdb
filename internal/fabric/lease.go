package fabric

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// The lease table is the coordinator's core state machine. A lease covers a
// contiguous range [lo, hi) of at most the table's lease size in the run's
// global config-index space and is in exactly one of three states:
//
//	pending  queued, unassigned (fresh, or requeued after an expiry)
//	active   assigned to one worker, with a heartbeat deadline
//	done     every row uploaded
//
// Transitions:
//
//	pending ── Acquire ───────────→ active   (epoch++, deadline set)
//	active  ── deadline passes ───→ pending  (the whole lease is re-leased)
//	active  ── Complete ──────────→ done     (one upload of all its rows)
//
// A worker simulates its lease and uploads every row in one request, which
// journals the rows and completes the lease together: a worker that dies
// mid-lease loses only that lease's simulation, and the re-granted lease
// resimulates exactly the rows that never landed. Every (re)grant
// increments the lease's epoch, and Complete/Heartbeat reject stale epochs,
// so a zombie worker whose lease was reassigned can never complete it or
// corrupt the journal.
//
// Stragglers: a worker holds one lease at a time, so a slow worker delays
// the end of a run by at most one lease's simulation, and no worker ever
// holds un-started work an idle one could take over.

// Lease table errors, surfaced to workers as HTTP statuses.
var (
	// ErrStaleLease rejects a request whose (id, epoch) no longer names a
	// live assignment: the lease expired and was reassigned, or is already
	// done.
	ErrStaleLease = errors.New("fabric: stale lease")
	// ErrUnknownLease rejects a lease id the table never issued.
	ErrUnknownLease = errors.New("fabric: unknown lease")
	// ErrBadAdvance rejects an upload whose rows do not cover exactly its
	// lease, or disagree with the run's column layout.
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
	lo, hi   int // [lo, hi) global index range
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
	expiry time.Duration
	// journaled counts the configurations done before the table was built.
	journaled int

	granted, expired int64
}

// NewTable partitions the index space [0, samples), less the indices in
// journaled, into pending leases of at most leaseSize contiguous configs;
// with nothing journaled that is ceil(samples/leaseSize) leases. expiry is
// the heartbeat deadline, and epoch0 the epoch every lease starts from (its
// first grant is epoch0+1).
func NewTable(samples, leaseSize int, expiry time.Duration, journaled map[int]bool, epoch0 int) (*Table, error) {
	if samples <= 0 {
		return nil, fmt.Errorf("fabric: table over %d samples", samples)
	}
	if leaseSize <= 0 {
		return nil, fmt.Errorf("fabric: lease size %d <= 0", leaseSize)
	}
	if expiry <= 0 {
		return nil, fmt.Errorf("fabric: non-positive expiry %s", expiry)
	}
	t := &Table{expiry: expiry}
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
		t.leases = append(t.leases, &tableLease{id: len(t.leases), lo: lo, hi: hi, epoch: epoch0})
		lo = hi
	}
	return t, nil
}

// LeaseEvent records one state transition for the coordinator's runlog.
type LeaseEvent struct {
	Event  string // grant, complete, expire
	Lease  int
	Epoch  int
	Worker string
	Lo, Hi int
}

// event describes l's current assignment as a transition of kind ev.
func (l *tableLease) event(ev string) LeaseEvent {
	return LeaseEvent{Event: ev, Lease: l.id, Epoch: l.epoch, Worker: l.worker, Lo: l.lo, Hi: l.hi}
}

// ExpireStale requeues every active lease whose deadline has passed,
// returning one event per expiry.
func (t *Table) ExpireStale(now time.Time) []LeaseEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.expireLocked(now)
}

func (t *Table) expireLocked(now time.Time) []LeaseEvent {
	var evs []LeaseEvent
	for _, l := range t.leases {
		if l.state == leaseActive && now.After(l.deadline) {
			evs = append(evs, l.event("expire"))
			l.state = leasePending
			l.worker = ""
			t.expired++
		}
	}
	return evs
}

// Acquire grants the lowest-id pending lease to worker. done reports the
// whole run complete; a nil lease with done false means every remaining
// lease is held by another worker (retry after a poll interval). Events
// cover any expiries the call performed plus the grant itself.
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
		return nil, t.doneLocked(), events
	}
	pick.state = leaseActive
	pick.epoch++
	pick.worker = worker
	pick.deadline = now.Add(t.expiry)
	pick.grants++
	t.granted++
	events = append(events, pick.event("grant"))
	return &Lease{
		ID:       pick.id,
		Epoch:    pick.epoch,
		Lo:       pick.lo,
		Hi:       pick.hi,
		ExpiryMS: t.expiry.Milliseconds(),
	}, false, events
}

// Complete marks the lease done. commit, if non-nil, runs under the table
// lock after the assignment is validated but before any state changes —
// the coordinator journals the lease's rows there, so a commit error
// leaves the lease active and its rows are either all recorded or none
// are.
func (t *Table) Complete(id, epoch int, worker string, commit func(lo, hi int) error) (LeaseEvent, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, err := t.liveLocked(id, epoch, worker)
	if err != nil {
		return LeaseEvent{}, err
	}
	if commit != nil {
		if err := commit(l.lo, l.hi); err != nil {
			return LeaseEvent{}, err
		}
	}
	l.state = leaseDone
	return l.event("complete"), nil
}

// Heartbeat refreshes the lease deadline.
func (t *Table) Heartbeat(id, epoch int, worker string, now time.Time) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, err := t.liveLocked(id, epoch, worker)
	if err != nil {
		return err
	}
	l.deadline = now.Add(t.expiry)
	return nil
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
	return t.countsLocked()
}

func (t *Table) countsLocked() (pending, active, completed, doneConfigs int) {
	doneConfigs = t.journaled
	for _, l := range t.leases {
		switch l.state {
		case leasePending:
			pending++
		case leaseActive:
			active++
		case leaseDone:
			completed++
			doneConfigs += l.hi - l.lo
		}
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
	Epoch  int    `json:"epoch"`
	Grants int    `json:"grants"`
}

// TableStatus snapshots the table for /status and the final summary.
type TableStatus struct {
	Pending, Active, Completed int
	Granted, Expired           int64
	// DoneConfigs is the number of done configurations: those journaled
	// before the table was built plus those of every done lease.
	DoneConfigs int
	Leases      []LeaseStatus
}

// Status snapshots the lease table.
func (t *Table) Status() TableStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := TableStatus{Granted: t.granted, Expired: t.expired}
	st.Pending, st.Active, st.Completed, st.DoneConfigs = t.countsLocked()
	for _, l := range t.leases {
		st.Leases = append(st.Leases, LeaseStatus{
			ID: l.id, State: l.state.String(), Worker: l.worker,
			Lo: l.lo, Hi: l.hi, Epoch: l.epoch, Grants: l.grants,
		})
	}
	return st
}
