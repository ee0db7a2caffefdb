package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"armdse/internal/obs"
)

// Fleet timeline export in Chrome trace-event JSON (the format that
// dserun's -chrome flag already writes for per-config pipeline traces;
// chrome://tracing and https://ui.perfetto.dev both open it). The fleet view maps one process to
// the run, one thread track per worker, a ph:"X" complete slice per lease
// hold, a ph:"i" instant per steal and a ph:"C" counter series for the
// rows/sec trajectory.

const (
	tracePid = 1
	// counterTid keeps the rows/sec counter off the worker tracks.
	counterTid = 0
)

// writeFleetTrace renders one analyzed runlog as a trace document.
func writeFleetTrace(w io.Writer, a *runAnalysis) error {
	workers := map[string]bool{}
	for _, sp := range a.Spans {
		workers[sp.Worker] = true
	}
	for _, st := range a.Steals {
		if st.Victim != "" {
			workers[st.Victim] = true
		}
	}
	names := make([]string, 0, len(workers))
	for name := range workers {
		names = append(names, name)
	}
	sort.Strings(names)
	tidOf := map[string]int{}
	for i, name := range names {
		tidOf[name] = i + 1
	}

	doc := obs.ChromeTrace{DisplayTimeUnit: "ms"}
	doc.TraceEvents = append(doc.TraceEvents, obs.ChromeEvent{
		Name: "process_name", Ph: "M", Pid: tracePid,
		Args: map[string]any{"name": "armdse fleet " + a.Report.File},
	})
	for _, name := range names {
		doc.TraceEvents = append(doc.TraceEvents, obs.ChromeEvent{
			Name: "thread_name", Ph: "M", Pid: tracePid, Tid: tidOf[name],
			Args: map[string]any{"name": "worker " + name},
		})
	}

	for _, sp := range a.Spans {
		dur := (sp.EndS - sp.StartS) * 1e6
		if dur < 1 {
			dur = 1 // sub-microsecond holds still render as a visible sliver
		}
		doc.TraceEvents = append(doc.TraceEvents, obs.ChromeEvent{
			Name: fmt.Sprintf("lease %d [%d,%d)", sp.Lease, sp.Lo, sp.Hi),
			Ph:   "X", Ts: sp.StartS * 1e6, Dur: dur,
			Pid: tracePid, Tid: tidOf[sp.Worker],
			Args: map[string]any{
				"lease": sp.Lease, "epoch": sp.Epoch,
				"lo": sp.Lo, "hi": sp.Hi, "outcome": sp.Outcome,
			},
		})
	}
	for _, st := range a.Steals {
		tid := counterTid
		if t, ok := tidOf[st.Victim]; ok {
			tid = t
		}
		doc.TraceEvents = append(doc.TraceEvents, obs.ChromeEvent{
			Name: fmt.Sprintf("steal lease %d", st.Lease),
			Ph:   "i", Ts: st.ElapsedS * 1e6, Pid: tracePid, Tid: tid, S: "t",
			Args: map[string]any{"lease": st.Lease, "lo": st.Lo, "hi": st.Hi},
		})
	}
	for _, tp := range a.Report.Trajectory {
		doc.TraceEvents = append(doc.TraceEvents, obs.ChromeEvent{
			Name: "rows_per_sec", Ph: "C", Ts: tp.ElapsedS * 1e6,
			Pid: tracePid, Tid: counterTid,
			Args: map[string]any{"rows_per_sec": tp.RowsPerSec},
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
