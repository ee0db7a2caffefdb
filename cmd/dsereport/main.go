// Command dsereport turns runlogs into scaling reports. It reads one or
// more runlog JSONL files (dsegen -runlog, local or -fleet), derives
// wall-clock, per-worker busy/idle utilization, lease churn and barrier
// share, and renders the result as text tables, a BENCH-style JSON
// document, or a Chrome/Perfetto fleet timeline:
//
//	dsereport fleet.runlog.jsonl
//	dsereport -format json w1.runlog.jsonl w2.runlog.jsonl w4.runlog.jsonl
//	dsereport -format trace -out fleet.trace.json fleet.runlog.jsonl
//
// With several runlogs the JSON and text outputs add a scaling curve:
// speedup and parallel efficiency per worker count against the
// smallest-fleet run as baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"armdse/internal/atomicfile"
	"armdse/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dsereport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text", "output format: text, json or trace")
	out := fs.String("out", "", "write to this file instead of stdout")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: dsereport [flags] runlog.jsonl [runlog.jsonl ...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	files := fs.Args()
	if len(files) == 0 {
		fs.Usage()
		return 2
	}
	switch *format {
	case "text", "json", "trace":
	default:
		fmt.Fprintf(stderr, "dsereport: unknown -format %q (want text, json or trace)\n", *format)
		return 2
	}
	if *format == "trace" && len(files) != 1 {
		fmt.Fprintf(stderr, "dsereport: -format trace renders one runlog's timeline, got %d\n", len(files))
		return 2
	}

	analyses := make([]*runAnalysis, 0, len(files))
	for _, f := range files {
		a, err := analyzeRunlog(f)
		if err != nil {
			fmt.Fprintf(stderr, "dsereport: %v\n", err)
			return 1
		}
		analyses = append(analyses, a)
	}

	write := func(w io.Writer) error {
		switch *format {
		case "trace":
			return writeFleetTrace(w, analyses[0])
		case "json":
			return writeJSONReport(w, analyses)
		default:
			return writeTextReport(w, analyses)
		}
	}
	var err error
	if *out != "" {
		err = atomicfile.Write(*out, write)
	} else {
		err = write(stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "dsereport: %v\n", err)
		return 1
	}
	return 0
}

// buildDoc assembles the JSON document; the scaling curve only appears when
// there is more than one run to compare.
func buildDoc(analyses []*runAnalysis) reportDoc {
	doc := reportDoc{Description: "armdse runlog scaling report"}
	for _, a := range analyses {
		doc.Runs = append(doc.Runs, a.Report)
	}
	if len(doc.Runs) > 1 {
		doc.Scaling = scalingCurve(doc.Runs)
	}
	return doc
}

func writeJSONReport(w io.Writer, analyses []*runAnalysis) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(buildDoc(analyses))
}

func writeTextReport(w io.Writer, analyses []*runAnalysis) error {
	doc := buildDoc(analyses)

	runs := report.Table{
		Title: "runs",
		Columns: []string{"runlog", "mode", "workers", "rows", "failed",
			"wall_s", "rows/s", "leases", "expiries", "barrier%"},
	}
	for _, r := range doc.Runs {
		mode := "sweep"
		if r.Fleet {
			mode = "fleet"
		}
		grants, expiries := "-", "-"
		if r.Leases != nil {
			grants = report.I(float64(r.Leases.Grants))
			expiries = report.I(float64(r.Leases.Expiries))
		}
		barrier := "-"
		if r.Barriers != nil {
			barrier = report.F(100*r.Barriers.Share, 1)
		}
		runs.AddRow(r.File, mode, report.I(float64(r.Workers)),
			report.I(float64(r.Rows)), report.I(float64(r.Failed)),
			report.F(r.WallS, 2), report.F(r.RowsPerSec, 1),
			grants, expiries, barrier)
	}
	if _, err := io.WriteString(w, runs.String()); err != nil {
		return err
	}

	for _, r := range doc.Runs {
		if len(r.WorkerUtil) == 0 {
			continue
		}
		util := report.Table{
			Title: "worker utilization: " + r.File,
			Columns: []string{"worker", "rows", "rows/s", "busy_s", "up_s",
				"busy%", "idle%", "lease_held_s", "leases"},
		}
		for _, u := range r.WorkerUtil {
			util.AddRow(u.Name, report.I(float64(u.Rows)), report.F(u.RowsPerSec, 1),
				report.F(u.BusyS, 2), report.F(u.UpS, 2),
				report.F(100*u.BusyFrac, 1), report.F(100*u.IdleFrac, 1),
				report.F(u.LeaseHeldS, 2), report.I(float64(u.Leases)))
		}
		if _, err := io.WriteString(w, "\n"+util.String()); err != nil {
			return err
		}
	}

	if len(doc.Scaling) > 0 {
		sc := report.Table{
			Title:   "scaling",
			Columns: []string{"workers", "wall_s", "rows/s", "speedup", "efficiency"},
		}
		for _, p := range doc.Scaling {
			sc.AddRow(report.I(float64(p.Workers)), report.F(p.WallS, 2),
				report.F(p.RowsPerSec, 1), report.F(p.Speedup, 2), report.F(p.Efficiency, 2))
		}
		if _, err := io.WriteString(w, "\n"+sc.String()); err != nil {
			return err
		}
	}
	return nil
}
