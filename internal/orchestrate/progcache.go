package orchestrate

import (
	"sync"

	"armdse/internal/isa"
	"armdse/internal/obs"
	"armdse/internal/workload"
)

// programCache shares built programs between workers: the instruction
// stream depends only on (application, vector length), so at most a handful
// of programs exist per app. Programs are immutable after construction; each
// run replays one from its loop templates through its worker's pooled
// workload.Cursor, so the cache holds static code only, never a trace.
//
// The cache holds its map lock only while resolving the entry; the program
// itself is built outside the lock under a per-entry sync.Once, so one
// slow build (a paper-scale workload can take seconds to lay out) never
// serialises workers building other programs.
type programCache struct {
	mu      sync.Mutex
	entries map[progKey]*progEntry
	// hits/misses/buildWall are optional telemetry handles (nil-safe): a
	// lookup that finds an existing entry is a hit, one that creates the
	// entry is a miss, and the miss's build is timed.
	hits, misses *obs.Counter
	buildWall    *obs.Histogram
}

type progKey struct {
	name string
	vl   int
}

type progEntry struct {
	once sync.Once
	prog *workload.Program
	err  error
	// statsOnce/stats lazily summarise the program's stream for the
	// hybrid evaluator; exact-only runs never pay for the pass.
	statsOnce sync.Once
	stats     isa.StreamStats
}

func newProgramCache() *programCache {
	return &programCache{entries: make(map[progKey]*progEntry)}
}

// instrument attaches the telemetry hub's progcache handles (nil-safe).
func (pc *programCache) instrument(tel *Telemetry) {
	if tel == nil {
		return
	}
	pc.hits, pc.misses, pc.buildWall = tel.progHits, tel.progMisses, tel.progBuild
}

func (pc *programCache) get(w workload.Workload, vl int, worker int) (*workload.Program, error) {
	key := progKey{name: w.Name(), vl: vl}
	pc.mu.Lock()
	e, ok := pc.entries[key]
	if !ok {
		e = &progEntry{}
		pc.entries[key] = e
	}
	pc.mu.Unlock()
	if ok {
		pc.hits.Inc(worker)
	} else {
		pc.misses.Inc(worker)
	}
	e.once.Do(func() {
		sp := pc.buildWall.Start(worker)
		e.prog, e.err = w.Program(vl)
		sp.End()
	})
	return e.prog, e.err
}

// getStats returns the (application, vector length) pair's stream statistics
// — the hybrid evaluator's bound-model input. The summary is computed once per entry,
// so every configuration sharing the pair answers from the cache.
func (pc *programCache) getStats(w workload.Workload, vl int, worker int) (isa.StreamStats, error) {
	prog, err := pc.get(w, vl, worker)
	if err != nil {
		return isa.StreamStats{}, err
	}
	pc.mu.Lock()
	e := pc.entries[progKey{name: w.Name(), vl: vl}]
	pc.mu.Unlock()
	e.statsOnce.Do(func() { e.stats = prog.Stats() })
	return e.stats, nil
}
