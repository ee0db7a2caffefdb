package fabric

import (
	"sort"
	"strings"
	"time"

	"armdse/internal/obs"
)

// The coordinator's side of the telemetry piggyback: decode payloads off
// advance/heartbeat requests, keep the latest snapshot per worker, merge
// them into the armdse_fleet_* exposition, flag stragglers, and journal
// per-worker utilization records alongside runlog heartbeats.

// Straggler heuristic defaults: a worker is flagged when its last-heartbeat
// age exceeds StragglerFactor times the fleet's median age, with
// StragglerFloorS keeping quiet fleets (everyone mid-chunk) from flagging
// each other over sub-second jitter.
const (
	StragglerFactor = 4.0
	StragglerFloorS = 5.0
)

// FlagStragglers flags each age that exceeds max(floorS, factor x median
// age) and returns the flags with the threshold used. The median-lag rule
// is self-scaling: it tracks whatever heartbeat cadence the fleet actually
// runs at instead of hard-coding a deadline.
func FlagStragglers(ages []float64, factor, floorS float64) ([]bool, float64) {
	flags := make([]bool, len(ages))
	if len(ages) == 0 {
		return flags, floorS
	}
	sorted := append([]float64(nil), ages...)
	sort.Float64s(sorted)
	var median float64
	if n := len(sorted); n%2 == 1 {
		median = sorted[n/2]
	} else {
		median = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	threshold := factor * median
	if threshold < floorS {
		threshold = floorS
	}
	for i, a := range ages {
		flags[i] = a > threshold
	}
	return flags, threshold
}

// decodeObs decodes an optional piggybacked telemetry payload; an absent
// payload is nil, a malformed one is an error the handler turns into 400.
func decodeObs(data []byte) (*WorkerTelemetry, error) {
	if len(data) == 0 {
		return nil, nil
	}
	t, err := DecodeTelemetry(data)
	if err != nil {
		return nil, err
	}
	return &t, nil
}

// noteTelemetry stores the worker's latest snapshot. A nil payload (the
// worker sent none) leaves the previous one in place.
func (c *Coordinator) noteTelemetry(worker string, tel *WorkerTelemetry, now time.Time) {
	if tel == nil {
		return
	}
	c.mu.Lock()
	fw := c.workerLocked(worker, now)
	fw.tel = tel
	fw.telAt = now
	c.mu.Unlock()
}

// fleetName maps a worker-local family name onto the fleet exposition
// namespace: armdse_runs_total -> armdse_fleet_runs_total.
func fleetName(name string) string {
	return "armdse_fleet_" + strings.TrimPrefix(name, "armdse_")
}

// FleetSnapshot merges every worker's latest piggybacked snapshot into the
// armdse_fleet_* family set: each worker-local family appears fleet-summed
// plus once per worker under a `worker` label, and synthetic families add
// the fleet size, per-worker busy/uptime split and straggler flags.
// Families under armdse_sweep_* are dropped — those gauges describe one
// worker's current chunk, which has no fleet-level meaning.
func (c *Coordinator) FleetSnapshot() obs.Snapshot {
	now := time.Now()
	c.mu.Lock()
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	var inputs []obs.WorkerSnapshot
	type utilRow struct {
		name           string
		busyS, upS     float64
		busyFrac, ageS float64
	}
	utils := make([]utilRow, 0, len(names))
	for _, name := range names {
		fw := c.workers[name]
		u := utilRow{name: name, ageS: now.Sub(fw.lastSeen).Seconds()}
		if fw.tel != nil {
			inputs = append(inputs, obs.WorkerSnapshot{Worker: name, Snap: fw.tel.Snap})
			u.busyS = float64(fw.tel.BusyNs) / 1e9
			u.upS = float64(fw.tel.UpNs) / 1e9
			if fw.tel.UpNs > 0 {
				u.busyFrac = float64(fw.tel.BusyNs) / float64(fw.tel.UpNs)
			}
		}
		utils = append(utils, u)
	}
	c.mu.Unlock()

	merged, err := obs.MergeSnapshots(inputs)
	if err != nil {
		// Unreachable with map-keyed worker names and pre-validated
		// payloads; degrade to the synthetic families only.
		merged = obs.Snapshot{}
	}
	out := obs.Snapshot{}
	for _, f := range merged.Families {
		if strings.HasPrefix(f.Name, "armdse_sweep_") {
			continue
		}
		f.Name = fleetName(f.Name)
		out.Families = append(out.Families, f)
	}

	ages := make([]float64, len(utils))
	for i, u := range utils {
		ages[i] = u.ageS
	}
	flags, _ := FlagStragglers(ages, StragglerFactor, StragglerFloorS)
	workersF := obs.FamilySnapshot{
		Name: "armdse_fleet_workers", Kind: "gauge",
		Help:   "Workers known to the coordinator.",
		Series: []obs.SeriesSnapshot{{Value: float64(len(utils))}},
	}
	busyF := obs.FamilySnapshot{Name: "armdse_fleet_worker_busy_seconds", Kind: "gauge",
		Help: "Cumulative simulation wall time per worker, from piggybacked telemetry."}
	upF := obs.FamilySnapshot{Name: "armdse_fleet_worker_up_seconds", Kind: "gauge",
		Help: "Wall time since each worker joined the fleet."}
	fracF := obs.FamilySnapshot{Name: "armdse_fleet_worker_busy_fraction", Kind: "gauge",
		Help: "busy_seconds / up_seconds per worker."}
	stragF := obs.FamilySnapshot{Name: "armdse_fleet_worker_straggler", Kind: "gauge",
		Help: "1 when the worker's last-heartbeat age exceeds the fleet's median-lag threshold."}
	for i, u := range utils {
		ls := []obs.Label{obs.L("worker", u.name)}
		busyF.Series = append(busyF.Series, obs.SeriesSnapshot{Labels: ls, Value: u.busyS})
		upF.Series = append(upF.Series, obs.SeriesSnapshot{Labels: ls, Value: u.upS})
		fracF.Series = append(fracF.Series, obs.SeriesSnapshot{Labels: ls, Value: u.busyFrac})
		flag := 0.0
		if flags[i] {
			flag = 1
		}
		stragF.Series = append(stragF.Series, obs.SeriesSnapshot{Labels: ls, Value: flag})
	}
	out.Families = append(out.Families, workersF, busyF, upF, fracF, stragF)
	sort.Slice(out.Families, func(i, j int) bool { return out.Families[i].Name < out.Families[j].Name })
	return out
}

// writeUtilLocked journals one utilization record per known worker, in name
// order — called alongside each runlog heartbeat. Caller holds mu.
func (c *Coordinator) writeUtilLocked(now time.Time) {
	if c.runlog == nil {
		return
	}
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	elapsed := obs.Round3(now.Sub(c.start).Seconds())
	for _, name := range names {
		fw := c.workers[name]
		rec := obs.UtilRecord{
			Type: "util", Worker: name, ElapsedS: elapsed,
			Rows: fw.rows, LastSeenS: obs.Round3(now.Sub(fw.lastSeen).Seconds()),
		}
		if d := fw.lastSeen.Sub(fw.first).Seconds(); d > 0 {
			rec.RowsPerSec = obs.Round3(float64(fw.rows) / d)
		}
		if fw.tel != nil {
			rec.BusyS = obs.Round3(float64(fw.tel.BusyNs) / 1e9)
			rec.UpS = obs.Round3(float64(fw.tel.UpNs) / 1e9)
			if fw.tel.UpNs > 0 {
				rec.BusyFrac = obs.Round3(float64(fw.tel.BusyNs) / float64(fw.tel.UpNs))
			}
		}
		_ = c.runlog.WriteRecord(rec)
	}
}
