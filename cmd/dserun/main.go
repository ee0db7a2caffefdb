// Command dserun simulates one workload on one CPU configuration and prints
// the run statistics — the single-run entry point of the toolkit, equivalent
// to invoking SimEng once in the paper's workflow. The configuration's Mem
// picks the memory model (a -config file with "Fidelity": 1 is the Table I
// hardware reference); -mem flat swaps in the ideal fixed-latency memory.
//
// The same run can be traced, without changing its statistics. -trace N
// prints dispatch, issue, completion and commit cycles for the first N
// retired instructions, plus a per-group latency summary, before the stats:
// the debugging window into the core model. -chrome writes the run as a
// Chrome trace-event JSON file (load it in ui.perfetto.dev or
// chrome://tracing): per-instruction lifetime slices packed onto overlap-free
// lanes, plus one timeline track per stall class carrying the engine's
// per-cycle attribution. One simulated cycle maps to 1us of trace time.
//
// For performance work the run can be profiled with -cpuprofile/-memprofile.
//
// Usage:
//
//	dserun [-app STREAM] [-config cfg.json] [-vl 512] [-paper] [-mem sst] [-v]
//	dserun -app STREAM -trace 40
//	dserun -app miniBUDE -chrome trace.json
//	dserun -dump-baseline tx2.json
//	dserun -app TeaLeaf -paper -cpuprofile cpu.pb.gz
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"armdse"
	"armdse/internal/atomicfile"
	"armdse/internal/obs"
	"armdse/internal/orchestrate"
	"armdse/internal/simeng"
	"armdse/internal/workload"
)

// chromeLimit caps the instructions a -chrome trace exports; the stall
// tracks always cover the whole run.
const chromeLimit = 100000

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dserun:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dserun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		app      = fs.String("app", "STREAM", "application: STREAM, miniBUDE, TeaLeaf, MiniSweep")
		cfgPath  = fs.String("config", "", "JSON configuration file (default: ThunderX2 baseline)")
		vl       = fs.Int("vl", 0, "override SVE vector length in bits (power of two, 128-2048)")
		paper    = fs.Bool("paper", false, "use the paper's Table IV inputs instead of the scaled test inputs")
		mem      = fs.String("mem", "", "memory backend: sst (default, the hierarchy the config describes) or flat")
		verbose  = fs.Bool("v", false, "print detailed memory statistics")
		maxCyc   = fs.Int64("max-cycles", 0, "abort the run after this many simulated cycles (0 = engine default)")
		traceN   = fs.Int("trace", 0, "print the pipeline trace of the first N retired instructions (0 = off)")
		chrome   = fs.String("chrome", "", "write the run as Chrome trace-event JSON (for Perfetto) to this file")
		dumpBase = fs.String("dump-baseline", "", "write the ThunderX2 baseline config to this path and exit")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceN < 0 {
		return fmt.Errorf("-trace %d < 0", *traceN)
	}
	stopProf, err := obs.StartProfile(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "dserun: profile:", err)
		}
	}()

	if *dumpBase != "" {
		if err := armdse.SaveConfig(armdse.ThunderX2(), *dumpBase); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", *dumpBase)
		return nil
	}

	cfg := armdse.ThunderX2()
	if *cfgPath != "" {
		cfg, err = armdse.LoadConfig(*cfgPath)
		if err != nil {
			return err
		}
	}
	if *vl != 0 {
		cfg.Core.VectorLength = *vl
		if cfg.Core.LoadBandwidth < *vl/8 {
			cfg.Core.LoadBandwidth = *vl / 8
		}
		if cfg.Core.StoreBandwidth < *vl/8 {
			cfg.Core.StoreBandwidth = *vl / 8
		}
	}
	suite := armdse.TestSuite()
	if *paper {
		suite = armdse.PaperSuite()
	}
	w := workload.ByName(suite, *app)
	if w == nil {
		return fmt.Errorf("unknown app %q (STREAM, miniBUDE, TeaLeaf, MiniSweep)", *app)
	}
	if err := w.Validate(); err != nil {
		return err
	}

	prog, err := w.Program(cfg.Core.VectorLength)
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name(), err)
	}
	backend, err := orchestrate.NewBackend(*mem, cfg)
	if err != nil {
		return err
	}
	core, err := simeng.New(cfg.Core, backend)
	if err != nil {
		return err
	}
	var text *textTrace
	if *traceN > 0 {
		text = newTextTrace(stdout, *traceN)
	}
	var events []simeng.TraceEvent
	var sc stallCollector
	if *chrome != "" {
		core.SetStallTracer(sc.record)
	}
	if text != nil || *chrome != "" {
		core.SetTracer(func(ev simeng.TraceEvent) {
			if text != nil {
				text.record(ev)
			}
			if *chrome != "" && len(events) < chromeLimit {
				events = append(events, ev)
			}
		})
	}
	if *maxCyc <= 0 {
		*maxCyc = simeng.DefaultMaxCycles
	}
	st, err := core.RunLimit(prog.Stream(), *maxCyc)
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name(), err)
	}
	if text != nil {
		text.summary(st)
		fmt.Fprintln(stdout)
	}
	if *chrome != "" {
		err := atomicfile.Write(*chrome, func(w io.Writer) error { return writeChromeTrace(w, events, sc.intervals) })
		if err != nil {
			return err
		}
		if int64(len(events)) < st.Retired {
			fmt.Fprintf(stderr, "trace truncated to the first %d of %d instructions\n", len(events), st.Retired)
		}
		fmt.Fprintf(stderr, "traced %d instructions and %d stall intervals over %d cycles\n",
			len(events), len(sc.intervals), st.Cycles)
	}

	fmt.Fprintf(stdout, "app=%s vl=%d\n", w.Name(), cfg.Core.VectorLength)
	fmt.Fprintf(stdout, "cycles:              %d\n", st.Cycles)
	fmt.Fprintf(stdout, "retired:             %d (IPC %.3f)\n", st.Retired, st.IPC())
	fmt.Fprintf(stdout, "sve retired:         %d (%.1f%%)\n", st.SVERetired, st.VectorisationPct())
	fmt.Fprintf(stdout, "loads/stores/branch: %d/%d/%d\n", st.Loads, st.Stores, st.Branches)
	if *verbose {
		fmt.Fprintf(stdout, "fetched:             %d (%d from loop buffer)\n", st.Fetched, st.LoopBufferFetched)
		fmt.Fprintf(stdout, "memory requests:     %d\n", st.MemRequests)
		fmt.Fprintf(stdout, "L1 hits/misses:      %d/%d\n", st.Mem.L1Hits, st.Mem.L1Misses)
		fmt.Fprintf(stdout, "L2 hits/misses:      %d/%d\n", st.Mem.L2Hits, st.Mem.L2Misses)
		fmt.Fprintf(stdout, "RAM reads:           %d (writebacks %d, prefetches %d)\n",
			st.Mem.RAMReads, st.Mem.Writebacks, st.Mem.Prefetches)
		fmt.Fprintf(stdout, "MSHR stall cycles:   %d\n", st.Mem.MSHRStallCycles)
		fmt.Fprintf(stdout, "stalls rob/rs/lq/sq: %d/%d/%d/%d\n", st.ROBStalls, st.RSStalls, st.LQStalls, st.SQStalls)
		fmt.Fprintf(stdout, "rename stalls:       gp=%d fp=%d pred=%d cond=%d\n",
			st.RenameStalls[0], st.RenameStalls[1], st.RenameStalls[2], st.RenameStalls[3])
		fmt.Fprintf(stdout, "avg occupancy:       rob=%.1f rs=%.1f\n", st.AvgROBOccupancy(), st.AvgRSOccupancy())
		fmt.Fprintf(stdout, "cycle breakdown:    ")
		for i, name := range armdse.StallClassNames() {
			fmt.Fprintf(stdout, " %s=%.1f%%", name, st.StallPct(armdse.StallClass(i)))
		}
		fmt.Fprintln(stdout)
		fmt.Fprintf(stdout, "port utilisation:   ")
		ports := cfg.Core.EffectivePorts()
		for i, u := range st.PortUtilisation() {
			name := fmt.Sprintf("p%d", i)
			if i < len(ports) {
				name = ports[i].Name
			}
			fmt.Fprintf(stdout, " %s=%.2f", name, u)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// textTrace prints one row per retired instruction for the first n, as they
// commit, and aggregates the dispatch-to-done latency of every instruction
// by execution group for the summary.
type textTrace struct {
	w       io.Writer
	n       int
	printed int
	byGroup map[string]*groupLatency
}

// newTextTrace prints the trace header and returns the tracer.
func newTextTrace(w io.Writer, n int) *textTrace {
	fmt.Fprintf(w, "%-6s %-10s %-9s %5s %10s %10s %10s %10s %8s\n",
		"seq", "pc", "op", "sve", "dispatch", "issue", "done", "commit", "latency")
	return &textTrace{w: w, n: n, byGroup: map[string]*groupLatency{}}
}

type groupLatency struct {
	count int64
	lat   int64
}

func (t *textTrace) record(ev simeng.TraceEvent) {
	lat := ev.Done - ev.Dispatched
	if t.printed < t.n {
		sve := ""
		if ev.SVE {
			sve = "sve"
		}
		fmt.Fprintf(t.w, "%-6d %#-10x %-9s %5s %10d %10d %10d %10d %8d\n",
			ev.Seq, ev.PC, ev.Op, sve, ev.Dispatched, ev.Issued, ev.Done, ev.Committed, lat)
		t.printed++
	}
	g := t.byGroup[ev.Op.String()]
	if g == nil {
		g = &groupLatency{}
		t.byGroup[ev.Op.String()] = g
	}
	g.count++
	g.lat += lat
}

func (t *textTrace) summary(st simeng.Stats) {
	fmt.Fprintf(t.w, "\ntotal: %d instructions in %d cycles (IPC %.2f)\n", st.Retired, st.Cycles, st.IPC())
	fmt.Fprintf(t.w, "\n%-10s %10s %14s\n", "group", "retired", "avg dispatch->done")
	for _, name := range []string{"INT_ALU", "INT_MUL", "INT_DIV", "FP_ADD", "FP_MUL", "FP_FMA", "FP_DIV",
		"SVE_ADD", "SVE_MUL", "SVE_FMA", "SVE_DIV", "PRED", "LOAD", "STORE", "BRANCH"} {
		if g, ok := t.byGroup[name]; ok {
			fmt.Fprintf(t.w, "%-10s %10d %14.1f\n", name, g.count, float64(g.lat)/float64(g.count))
		}
	}
}
