package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"armdse/internal/obs"
)

// Runlog reading. Every line is one JSON record discriminated by "type",
// decoded into the record structs of internal/obs that dsegen writes,
// locally and as a -fleet coordinator, and that obs.ValidateRunlog checks
// runlogs against. Decoding here is deliberately lenient — unknown fields
// and record types are ignored — so a newer runlog still reports under an
// older dsereport.

// RunReport is one runlog's scaling analysis — the JSON shape emitted under
// "runs" and the source of every text table.
type RunReport struct {
	File       string            `json:"file"`
	Fleet      bool              `json:"fleet"`
	Seed       int64             `json:"seed"`
	Samples    int               `json:"samples"`
	Workers    int               `json:"workers"`
	Rows       int               `json:"rows"`
	Failed     int               `json:"failed"`
	WallS      float64           `json:"wall_s"`
	RowsPerSec float64           `json:"rows_per_sec"`
	Leases     *LeaseReport      `json:"leases,omitempty"`
	Barriers   *BarrierReport    `json:"barriers,omitempty"`
	WorkerUtil []WorkerUtil      `json:"worker_util,omitempty"`
	Trajectory []TrajectoryPoint `json:"trajectory,omitempty"`
}

// LeaseReport counts lease churn over a fleet run.
type LeaseReport struct {
	Grants    int `json:"grants"`
	Completes int `json:"completes"`
	Expiries  int `json:"expiries"`
}

// BarrierReport aggregates PR 9's adaptive generation barriers.
type BarrierReport struct {
	Generations int     `json:"generations"`
	WallS       float64 `json:"wall_s"`
	// Share is barrier wall time as a fraction of run wall time.
	Share      float64 `json:"share"`
	PoolScored int64   `json:"pool_scored"`
}

// WorkerUtil is one worker's busy/idle split. Busy figures prefer the
// coordinator's util records (worker-reported simulation time); LeaseHeldS
// is the lease-span fallback view derived purely from grant/complete
// events.
type WorkerUtil struct {
	Name       string  `json:"name"`
	Rows       int64   `json:"rows"`
	RowsPerSec float64 `json:"rows_per_sec"`
	BusyS      float64 `json:"busy_s"`
	UpS        float64 `json:"up_s"`
	BusyFrac   float64 `json:"busy_frac"`
	IdleFrac   float64 `json:"idle_frac"`
	LeaseHeldS float64 `json:"lease_held_s"`
	Leases     int     `json:"leases"`
}

// TrajectoryPoint is one heartbeat's progress sample.
type TrajectoryPoint struct {
	ElapsedS   float64 `json:"elapsed_s"`
	Done       int     `json:"done"`
	RowsPerSec float64 `json:"rows_per_sec"`
}

// leaseSpan is one continuous lease hold on a worker's timeline.
type leaseSpan struct {
	Worker  string
	Lease   int
	Epoch   int
	Lo, Hi  int
	StartS  float64
	EndS    float64
	Outcome string // committed, expired, open
}

// runAnalysis is a parsed runlog: the report plus the raw timeline the
// trace exporter renders.
type runAnalysis struct {
	Report RunReport
	Spans  []leaseSpan
}

// analyzeRunlog reads one runlog and derives the report: totals from the
// summary record, lease churn and per-worker spans from lease records,
// utilization from util records, barrier share from barrier records and the
// rows/sec trajectory from heartbeats. Lease events other than grant,
// complete and expire, which older coordinators also wrote, are ignored.
func analyzeRunlog(path string) (*runAnalysis, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	a := &runAnalysis{Report: RunReport{File: path}}
	var (
		meta      *obs.MetaRecord
		summary   *obs.SummaryRecord
		lastHB    *obs.HeartbeatRecord
		leases    LeaseReport
		barriers  BarrierReport
		utilBy    = map[string]obs.UtilRecord{}
		grantsBy  = map[string]int{}
		open      = map[int]*leaseSpan{}
		workerSet = map[string]bool{}
		lineNo    int
	)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var p struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &p); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, lineNo, err)
		}
		switch p.Type {
		case "meta":
			var r obs.MetaRecord
			if err := json.Unmarshal(line, &r); err != nil {
				return nil, fmt.Errorf("%s:%d: meta: %w", path, lineNo, err)
			}
			meta = &r
		case "heartbeat":
			var r obs.HeartbeatRecord
			if err := json.Unmarshal(line, &r); err != nil {
				return nil, fmt.Errorf("%s:%d: heartbeat: %w", path, lineNo, err)
			}
			lastHB = &r
			a.Report.Trajectory = append(a.Report.Trajectory, TrajectoryPoint{
				ElapsedS: r.ElapsedS, Done: r.Done, RowsPerSec: r.RowsPerSec,
			})
		case "util":
			var r obs.UtilRecord
			if err := json.Unmarshal(line, &r); err != nil {
				return nil, fmt.Errorf("%s:%d: util: %w", path, lineNo, err)
			}
			utilBy[r.Worker] = r // cumulative: last record wins
			workerSet[r.Worker] = true
		case "barrier":
			var r obs.BarrierRecord
			if err := json.Unmarshal(line, &r); err != nil {
				return nil, fmt.Errorf("%s:%d: barrier: %w", path, lineNo, err)
			}
			barriers.Generations++
			barriers.WallS += r.WallMs / 1000
			barriers.PoolScored += int64(r.PoolScored)
		case "lease":
			var r obs.LeaseRecord
			if err := json.Unmarshal(line, &r); err != nil {
				return nil, fmt.Errorf("%s:%d: lease: %w", path, lineNo, err)
			}
			if r.Worker != "" {
				workerSet[r.Worker] = true
			}
			switch r.Event {
			case "grant":
				leases.Grants++
				grantsBy[r.Worker]++
				open[r.Lease] = &leaseSpan{
					Worker: r.Worker, Lease: r.Lease, Epoch: r.Epoch,
					Lo: r.Lo, Hi: r.Hi, StartS: r.ElapsedS, Outcome: "open",
				}
			case "complete":
				leases.Completes++
				if sp := open[r.Lease]; sp != nil {
					sp.Hi, sp.EndS, sp.Outcome = r.Hi, r.ElapsedS, "committed"
					a.Spans = append(a.Spans, *sp)
					delete(open, r.Lease)
				}
			case "expire":
				leases.Expiries++
				if sp := open[r.Lease]; sp != nil {
					sp.EndS, sp.Outcome = r.ElapsedS, "expired"
					a.Spans = append(a.Spans, *sp)
					delete(open, r.Lease)
				}
			}
		case "summary":
			var r obs.SummaryRecord
			if err := json.Unmarshal(line, &r); err != nil {
				return nil, fmt.Errorf("%s:%d: summary: %w", path, lineNo, err)
			}
			summary = &r
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if meta == nil {
		return nil, fmt.Errorf("%s: no meta record — not a runlog?", path)
	}

	rep := &a.Report
	rep.Seed, rep.Samples = meta.Seed, meta.Samples
	rep.Fleet = meta.Fabric != nil
	switch {
	case summary != nil:
		rep.Rows, rep.Failed, rep.WallS = summary.Rows, summary.Failed, summary.ElapsedS
	case lastHB != nil: // truncated log: report progress so far
		rep.Rows, rep.Failed, rep.WallS = lastHB.Done-lastHB.Failed, lastHB.Failed, lastHB.ElapsedS
	}
	if rep.WallS > 0 {
		rep.RowsPerSec = float64(rep.Rows+rep.Failed) / rep.WallS
	}
	if rep.Fleet {
		rep.Workers = len(workerSet)
		rep.Leases = &leases
	} else {
		rep.Workers = meta.Workers
	}
	if barriers.Generations > 0 {
		if rep.WallS > 0 {
			barriers.Share = barriers.WallS / rep.WallS
		}
		rep.Barriers = &barriers
	}

	// Close holds that never saw a terminal event (the log ends mid-run or
	// the coordinator exited first) at the run's wall clock.
	for _, sp := range open {
		sp.EndS = rep.WallS
		if sp.EndS < sp.StartS {
			sp.EndS = sp.StartS
		}
		a.Spans = append(a.Spans, *sp)
	}
	sort.Slice(a.Spans, func(i, j int) bool {
		if a.Spans[i].StartS != a.Spans[j].StartS {
			return a.Spans[i].StartS < a.Spans[j].StartS
		}
		return a.Spans[i].Lease < a.Spans[j].Lease
	})

	heldBy := map[string]float64{}
	for _, sp := range a.Spans {
		heldBy[sp.Worker] += sp.EndS - sp.StartS
	}
	names := make([]string, 0, len(workerSet))
	for name := range workerSet {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		wu := WorkerUtil{Name: name, LeaseHeldS: heldBy[name], Leases: grantsBy[name]}
		if u, ok := utilBy[name]; ok {
			wu.Rows, wu.RowsPerSec = u.Rows, u.RowsPerSec
			wu.BusyS, wu.UpS, wu.BusyFrac = u.BusyS, u.UpS, u.BusyFrac
		} else if rep.WallS > 0 {
			// Pre-telemetry runlog: approximate busy time by lease holds.
			wu.BusyS, wu.UpS = wu.LeaseHeldS, rep.WallS
			wu.BusyFrac = wu.LeaseHeldS / rep.WallS
		}
		if wu.BusyFrac > 0 || wu.UpS > 0 {
			wu.IdleFrac = 1 - wu.BusyFrac
			if wu.IdleFrac < 0 {
				wu.IdleFrac = 0
			}
		}
		rep.WorkerUtil = append(rep.WorkerUtil, wu)
	}
	return a, nil
}

// ScalingPoint is one run on the wall-clock vs worker-count curve; speedup
// and efficiency are relative to the run with the fewest workers.
type ScalingPoint struct {
	File       string  `json:"file"`
	Workers    int     `json:"workers"`
	WallS      float64 `json:"wall_s"`
	RowsPerSec float64 `json:"rows_per_sec"`
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
}

// scalingCurve orders runs by worker count and computes speedup/efficiency
// against the smallest-fleet baseline.
func scalingCurve(runs []RunReport) []ScalingPoint {
	pts := make([]ScalingPoint, 0, len(runs))
	for _, r := range runs {
		pts = append(pts, ScalingPoint{
			File: r.File, Workers: r.Workers, WallS: r.WallS, RowsPerSec: r.RowsPerSec,
		})
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Workers != pts[j].Workers {
			return pts[i].Workers < pts[j].Workers
		}
		return pts[i].File < pts[j].File
	})
	base := pts[0]
	for i := range pts {
		if pts[i].WallS > 0 && base.WallS > 0 {
			pts[i].Speedup = base.WallS / pts[i].WallS
			if pts[i].Workers > 0 && base.Workers > 0 {
				pts[i].Efficiency = pts[i].Speedup * float64(base.Workers) / float64(pts[i].Workers)
			}
		}
	}
	return pts
}

// reportDoc is the -format json output: the per-run reports plus, for
// several runlogs, the scaling curve against the fewest-worker run.
type reportDoc struct {
	Description string         `json:"description"`
	Runs        []RunReport    `json:"runs"`
	Scaling     []ScalingPoint `json:"scaling,omitempty"`
}
