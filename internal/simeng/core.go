package simeng

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"armdse/internal/isa"
)

// ErrCycleLimit marks a run aborted by its cycle budget (RunLimit's
// maxCycles, the engine's MaxCyclesPerRun protection). Callers distinguish
// budget hits from structural failures with errors.Is.
var ErrCycleLimit = errors.New("cycle limit exceeded")

// doneNever marks a result time that is not yet known.
const doneNever = math.MaxInt64

// entryState tracks an in-flight instruction through the back end.
type entryState uint8

const (
	stFree entryState = iota
	// stInRS: dispatched, waiting in the reservation station.
	stInRS
	// stExec: issued; resultAt gives completion (also stores post-AGU and
	// loads post-writeback — an entry with resultAt <= cycle is done).
	stExec
	// stLoadAGU: load issued on a port; line requests pending in loadReqQ.
	stLoadAGU
	// stLoadMem: all line requests issued; waiting for data return.
	stLoadMem
)

// entry is one window slot. The window is indexed by sequence number modulo
// its length; rename builds the entry in its slot, dispatch admits it to the
// reorder buffer, and the slot recycles at commit.
//
// Readiness uses wakeup lists rather than per-cycle source polling: at
// dispatch each unresolved source links a (consumer, slot) node onto its
// producer's list; when the producer's completion time becomes known it
// walks the list, folding the time into each consumer's earliestReady and
// decrementing pendingSrcs. An entry is issueable when pendingSrcs is zero
// and earliestReady has passed.
type entry struct {
	resultAt int64
	memDone  int64
	nextLine uint64 // next un-requested byte of the access
	endAddr  uint64
	addr     uint64
	// earliestReady is the max known completion time of resolved sources.
	earliestReady int64
	// pc, dispatchedAt and issuedAt feed the optional commit tracer;
	// issuedAt is -1 until the instruction wins a port.
	pc           uint64
	dispatchedAt int64
	issuedAt     int64
	// wakeHead is the first (consumerSeq*4+slot) node of this entry's
	// consumer wake list, or -1.
	wakeHead int64
	// wakeNext are this entry's own per-source-slot list links. Between
	// rename and dispatch they hold the ns source producers' sequence
	// numbers (-1 for an architectural value) instead.
	wakeNext [4]int64
	op       isa.Group
	sve      bool
	state    entryState
	nd, ns   uint8
	// pendingSrcs counts sources whose producer completion is unknown.
	pendingSrcs uint8
	destClass   [2]uint8
}

// TraceEvent records the lifetime of one retired instruction; events are
// delivered in program order at commit time.
type TraceEvent struct {
	// Seq is the instruction's global sequence number.
	Seq int64
	// PC is the instruction's byte address.
	PC uint64
	// Op is the execution group; SVE marks Z-register instructions.
	Op  isa.Group
	SVE bool
	// Dispatched, Issued, Done and Committed are the cycles the
	// instruction entered the window, won an execution port, produced its
	// result, and retired. Issued is -1 for instructions that never pass
	// the scheduler (not produced today, but kept defensive).
	Dispatched int64
	Issued     int64
	Done       int64
	Committed  int64
}

// Core is one out-of-order core wired to a MemoryBackend. The pipeline is
// split into stage components — fetchUnit, renameUnit, issueUnit, lsqUnit —
// each owning its stage's private state; the shared window, sequence
// counters, event wheel and stallBus live on the Core. A Core runs a single
// instruction stream per lifecycle: after a run (or between runs of a
// sweep) call Reset to rebuild it in place for a new configuration and
// backend — backing storage is retained, so a pooled core reaches a
// steady state with no per-run allocation.
type Core struct {
	cfg       Config
	mem       MemoryBackend
	lineBytes uint64

	// window holds the renamed instructions: the reorder buffer's entries
	// (seqCommitted..seqDispatched) followed by the rename→dispatch latch
	// (seqDispatched..seqRenamed, at most renameQCap). It is sized to the
	// power-of-two ceiling of ROBSize+renameQCap, so the slot rename writes
	// is never a live entry and slot lookup is seq&wmask instead of a 64-bit
	// modulo (the single hottest index computation in the engine). The ROB
	// capacity check uses cp.
	window []entry
	cp     int64 // logical ROB capacity (== ROBSize)
	wmask  int64 // len(window)-1

	seqRenamed    int64
	seqDispatched int64
	seqCommitted  int64

	// fetchQ is the fetch→rename latch. It carries pointers into the fetch
	// unit's lazyBuf (see fetchUnit) so fetched instructions are never
	// copied per stage.
	fetchQ ring[*isa.Inst]
	// events is the idle-skip wheel: bit t%wheelSize is set while a stage
	// has a wake-up posted for future cycle t, so a no-progress cycle can
	// jump straight to the next one with work.
	events uint64

	fetch  fetchUnit
	rename renameUnit
	issue  issueUnit
	lsq    lsqUnit
	bus    stallBus

	cycle       int64
	progress    bool
	runErr      error
	stats       Stats
	tracer      func(TraceEvent)
	stallTracer func(class StallClass, fromCycle, cycles int64)
}

// wheelSize is the horizon of the core's timing wheels (the idle-skip
// events and the issue unit's future-ready entries). Every wake-up the core
// schedules lies less than wheelSize cycles ahead — the longest is an
// execution latency (isa.SVEDiv's 20) — so cycle t owns slot t%wheelSize
// and a 64-bit mask covers the whole horizon.
const wheelSize = 64

// postEvent schedules a wake-up at cycle at, c.cycle < at < c.cycle+wheelSize.
func (c *Core) postEvent(at int64) {
	c.events |= 1 << (at & (wheelSize - 1))
}

// nextWheelCycle returns the earliest cycle after now whose slot is set in
// mask, a non-zero wheel mask of cycles in (now, now+wheelSize).
func nextWheelCycle(mask uint64, now int64) int64 {
	from := int((now + 1) & (wheelSize - 1))
	return now + 1 + int64(bits.TrailingZeros64(bits.RotateLeft64(mask, -from)))
}

// SetTracer installs a per-instruction commit callback. Tracing is for
// debugging and dserun's -trace and -chrome outputs; it slows simulation
// and must be set before Run.
func (c *Core) SetTracer(fn func(TraceEvent)) { c.tracer = fn }

// SetStallTracer installs a per-step stall-attribution callback: after each
// simulated step the engine reports the StallClass charged for the cycles
// [fromCycle, fromCycle+cycles). Intervals arrive in cycle order and tile the
// run exactly (their cycle counts sum to Stats.Cycles), so a consumer can
// coalesce adjacent same-class intervals into timeline tracks. Like SetTracer
// it slows simulation, must be set before Run, and is cleared by Reset.
func (c *Core) SetStallTracer(fn func(class StallClass, fromCycle, cycles int64)) {
	c.stallTracer = fn
}

// fetchQCap is the fetch→rename latch capacity; renameQCap bounds how many
// renamed instructions wait in the window for dispatch.
const (
	fetchQCap  = 192
	renameQCap = 16
)

// New builds a core from cfg attached to the given memory backend.
func New(cfg Config, mem MemoryBackend) (*Core, error) {
	c := &Core{}
	if err := c.Reset(cfg, mem); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset rebuilds the core in place for a new run on cfg and mem, exactly as
// if it had been built with New — but retaining every backing array (window
// slots, queue buffers, heaps, per-port and per-class tables) so a pooled
// core allocates nothing at steady state. Reset clears any installed
// tracers; call SetTracer/SetStallTracer again after Reset if tracing is
// wanted.
//
// The contract, pinned by the pooled-vs-fresh differential tests: a Run
// after Reset is byte-identical to the same Run on a freshly constructed
// core, whatever ran on the core before — including failed, truncated, or
// larger-configuration runs.
func (c *Core) Reset(cfg Config, mem MemoryBackend) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if mem == nil {
		return fmt.Errorf("simeng: nil memory backend")
	}
	lb := mem.LineBytes()
	if lb < 4 || lb&(lb-1) != 0 {
		return fmt.Errorf("simeng: backend line size %d not a power of two >= 4", lb)
	}
	c.cfg = cfg
	c.mem = mem
	c.lineBytes = uint64(lb)
	c.cp = int64(cfg.ROBSize)
	n := nextPow2(cfg.ROBSize + renameQCap)
	c.wmask = int64(n - 1)
	// The window is deliberately NOT cleared on reuse: no entry field is
	// read before renameStage and dispatchStage have stored every one of
	// them, so stale slots from a previous run are unobservable (the
	// pooled-vs-fresh differential tests exercise exactly this).
	if cap(c.window) >= n {
		c.window = c.window[:n]
	} else {
		c.window = make([]entry, n)
	}
	c.seqRenamed, c.seqDispatched, c.seqCommitted = 0, 0, 0
	c.fetchQ.reset(fetchQCap)
	c.events = 0
	c.fetch.reset()
	c.rename.reset(cfg)
	c.issue.reset(cfg)
	c.lsq.reset(cfg)
	c.bus.reset()
	c.cycle = 0
	c.progress = false
	c.runErr = nil
	c.resetStats()
	c.tracer = nil
	c.stallTracer = nil
	return nil
}

// resetStats zeroes the run statistics, reusing the per-port slice.
func (c *Core) resetStats() {
	pi := c.stats.PortIssued
	c.stats = Stats{}
	n := len(c.issue.freeAt)
	if cap(pi) >= n {
		pi = pi[:n]
		clear(pi)
	} else {
		pi = make([]int64, n)
	}
	c.stats.PortIssued = pi
}

// Simulate runs stream on a fresh core attached to mem and returns the run
// statistics. It is the package's primary entry point; callers that want the
// study's SST-like hierarchy build it with sstmem.New and pass it here.
func Simulate(core Config, mem MemoryBackend, stream isa.Stream) (Stats, error) {
	c, err := New(core, mem)
	if err != nil {
		return Stats{}, err
	}
	return c.Run(stream)
}

// DefaultMaxCycles bounds a run against livelock; it is far beyond any
// plausible real execution of the study's workloads.
const DefaultMaxCycles = int64(1) << 40

// Run executes the stream to completion and returns the statistics.
func (c *Core) Run(stream isa.Stream) (Stats, error) {
	return c.RunLimit(stream, DefaultMaxCycles)
}

// RunLimit is Run with an explicit cycle budget.
//
// Each simulated step runs the stages in reverse pipeline order, then
// charges the step's cycles to exactly one StallClass from the stallBus
// reports (idle-skipped cycles all go to the class that blocked the skip),
// so Stats.Stalls sums to Stats.Cycles on every successful run.
func (c *Core) RunLimit(stream isa.Stream, maxCycles int64) (Stats, error) {
	if c.fetch.stream != nil {
		return Stats{}, fmt.Errorf("simeng: core already used; Reset it (or build a new one) per run")
	}
	c.fetch.stream = stream
	for {
		c.progress = false
		c.bus.reset()
		c.events &^= 1 << (c.cycle & (wheelSize - 1))
		c.commitStage()
		c.memoryStage()
		c.issueStage()
		c.dispatchStage()
		c.renameStage()
		c.fetchStage()
		if c.runErr != nil {
			return c.stats, c.runErr
		}
		class := c.classifyCycle()
		if c.finished() {
			// The final cycle is counted in Cycles (== c.cycle+1), so it
			// gets one attribution too.
			c.stats.Stalls[class]++
			if c.stallTracer != nil {
				c.stallTracer(class, c.cycle, 1)
			}
			break
		}
		occ := c.seqDispatched - c.seqCommitted
		prevCycle := c.cycle
		if c.progress {
			c.cycle++
		} else {
			// The next cycle with work is the earliest pending wake-up
			// across the three event sources: posted events, future-ready
			// RS entries (both wheels of cycles within wheelSize, merged
			// into one mask) and in-flight load data returns (loadHeap).
			next := int64(math.MaxInt64)
			if m := c.events | c.issue.readyMask; m != 0 {
				next = nextWheelCycle(m, c.cycle)
			}
			if h := &c.lsq.loadHeap; h.Len() > 0 && h.Min().at < next {
				next = h.Min().at
			}
			if next == math.MaxInt64 {
				return c.stats, fmt.Errorf("simeng: deadlock at cycle %d (%d retired, %d in flight)",
					c.cycle, c.stats.Retired, c.seqDispatched-c.seqCommitted)
			}
			if next <= c.cycle {
				// A backend returned data no later than its request
				// cycle; write it back next cycle.
				next = c.cycle + 1
			}
			c.cycle = next
		}
		elapsed := c.cycle - prevCycle
		c.stats.Stalls[class] += elapsed
		if c.stallTracer != nil {
			c.stallTracer(class, prevCycle, elapsed)
		}
		c.stats.ROBOccupancy += occ * elapsed
		c.stats.RSOccupancy += int64(c.issue.rsCount) * elapsed
		if c.cycle > maxCycles {
			return c.stats, fmt.Errorf("simeng: exceeded cycle limit %d with %d retired: %w", maxCycles, c.stats.Retired, ErrCycleLimit)
		}
	}
	c.stats.Cycles = c.cycle + 1
	c.stats.Mem = c.mem.Stats()
	return c.stats, nil
}

// finished reports whether all work has drained.
func (c *Core) finished() bool {
	return c.fetch.streamDone && !c.fetch.havePeek &&
		c.fetchQ.Empty() && c.seqCommitted == c.seqRenamed &&
		c.lsq.storeWriteQ.Empty()
}

// fail aborts the run with a structural error (generator bug).
func (c *Core) fail(format string, args ...any) {
	if c.runErr == nil {
		c.runErr = fmt.Errorf(format, args...)
	}
}
