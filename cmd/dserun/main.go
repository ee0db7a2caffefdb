// Command dserun simulates one workload on one CPU configuration and prints
// the run statistics — the single-run entry point of the toolkit, equivalent
// to invoking SimEng once in the paper's workflow.
//
// For performance work the run can be profiled with -cpuprofile/-memprofile.
//
// Usage:
//
//	dserun [-app STREAM] [-config cfg.json] [-vl 512] [-paper] [-mem sst] [-v]
//	dserun -dump-baseline tx2.json
//	dserun -app TeaLeaf -paper -cpuprofile cpu.pb.gz
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"armdse"
	"armdse/internal/obs"
	"armdse/internal/workload"
)

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
		mem      = fs.String("mem", "", "memory backend: sst (default), flat, proxy")
		verbose  = fs.Bool("v", false, "print detailed memory statistics")
		maxCyc   = fs.Int64("max-cycles", 0, "abort the run after this many simulated cycles (0 = engine default)")
		dumpBase = fs.String("dump-baseline", "", "write the ThunderX2 baseline config to this path and exit")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
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

	st, err := armdse.SimulateOn(*mem, cfg, w, *maxCyc)
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name(), err)
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
