package main

import (
	"encoding/json"
	"fmt"
	"io"

	"armdse/internal/obs"
	"armdse/internal/simeng"
)

// Chrome trace-event export: the run's per-instruction lifetimes and
// per-stage stall attribution as a trace JSON object loadable by Perfetto
// (ui.perfetto.dev) or chrome://tracing. One simulated cycle maps to one
// microsecond of trace time, so the UI's time axis reads directly as cycles.
//
// The trace has two processes: pid 1 holds the instruction timeline, spread
// over enough lanes (threads) that overlapping instructions never share one
// — the visual width of the lane set IS the window occupancy; pid 2 holds
// one track per stall class, tiling the run with the engine's per-cycle
// attribution (the same numbers behind Stats.Stalls, drawn on a timeline).

// stallInterval is one coalesced run of cycles attributed to a single class.
type stallInterval struct {
	class simeng.StallClass
	from  int64
	n     int64
}

// stallCollector coalesces the engine's per-step stall attribution into
// maximal same-class intervals. Install its record method via SetStallTracer.
type stallCollector struct {
	intervals []stallInterval
}

func (sc *stallCollector) record(class simeng.StallClass, from, n int64) {
	if k := len(sc.intervals); k > 0 {
		last := &sc.intervals[k-1]
		if last.class == class && last.from+last.n == from {
			last.n += n
			return
		}
	}
	sc.intervals = append(sc.intervals, stallInterval{class: class, from: from, n: n})
}

// tracePIDs and lane bounds.
// maxLanes bounds the instruction track count; it must cover the largest
// window occupancy a traced configuration can reach (the ROB size), so only
// beyond-baseline ROB configurations ever drop slices.
const (
	pidInstructions = 1
	pidStalls       = 2
	maxLanes        = 256
)

// writeChromeTrace renders the collected instruction events and stall
// intervals as Chrome trace JSON. Instructions are packed onto lanes
// greedily in program order (first free lane wins); instructions that
// arrive while all lanes are busy are dropped and counted, which only
// happens when window occupancy exceeds maxLanes.
func writeChromeTrace(w io.Writer, events []simeng.TraceEvent, stalls []stallInterval) error {
	out := obs.ChromeTrace{DisplayTimeUnit: "ns"}
	out.TraceEvents = append(out.TraceEvents,
		obs.ChromeEvent{Name: "process_name", Ph: "M", Pid: pidInstructions,
			Args: map[string]any{"name": "instructions (1 cycle = 1us)"}},
		obs.ChromeEvent{Name: "process_name", Ph: "M", Pid: pidStalls,
			Args: map[string]any{"name": "stall attribution"}},
	)

	// Greedy lane packing: laneFree[t] is the first cycle lane t is free.
	var laneFree []int64
	dropped := 0
	usedLanes := 0
	for _, ev := range events {
		lane := -1
		for t := 0; t < len(laneFree); t++ {
			if laneFree[t] <= ev.Dispatched {
				lane = t
				break
			}
		}
		if lane == -1 {
			if len(laneFree) >= maxLanes {
				dropped++
				continue
			}
			lane = len(laneFree)
			laneFree = append(laneFree, 0)
		}
		end := ev.Committed + 1
		laneFree[lane] = end
		if lane+1 > usedLanes {
			usedLanes = lane + 1
		}
		name := ev.Op.String()
		if ev.SVE {
			name += ".sve"
		}
		out.TraceEvents = append(out.TraceEvents, obs.ChromeEvent{
			Name: name, Ph: "X",
			Ts: float64(ev.Dispatched), Dur: float64(end - ev.Dispatched),
			Pid: pidInstructions, Tid: lane,
			Args: map[string]any{
				"seq":        ev.Seq,
				"pc":         fmt.Sprintf("%#x", ev.PC),
				"dispatched": ev.Dispatched,
				"issued":     ev.Issued,
				"done":       ev.Done,
				"committed":  ev.Committed,
			},
		})
	}
	for t := 0; t < usedLanes; t++ {
		out.TraceEvents = append(out.TraceEvents, obs.ChromeEvent{
			Name: "thread_name", Ph: "M", Pid: pidInstructions, Tid: t,
			Args: map[string]any{"name": fmt.Sprintf("lane %02d", t)},
		})
	}

	classes := simeng.StallClassNames()
	seen := make([]bool, len(classes))
	for _, iv := range stalls {
		seen[iv.class] = true
		out.TraceEvents = append(out.TraceEvents, obs.ChromeEvent{
			Name: classes[iv.class], Ph: "X",
			Ts: float64(iv.from), Dur: float64(iv.n),
			Pid: pidStalls, Tid: int(iv.class),
			Args: map[string]any{"cycles": iv.n},
		})
	}
	for c, name := range classes {
		if seen[c] {
			out.TraceEvents = append(out.TraceEvents, obs.ChromeEvent{
				Name: "thread_name", Ph: "M", Pid: pidStalls, Tid: c,
				Args: map[string]any{"name": name},
			})
		}
	}

	if dropped > 0 {
		out.TraceEvents = append(out.TraceEvents, obs.ChromeEvent{
			Name: "dropped_instructions", Ph: "M", Pid: pidInstructions,
			Args: map[string]any{"dropped": dropped, "max_lanes": maxLanes},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
