// Command dsegen generates a dataset: it samples the design space, simulates
// every application on each configuration across all cores, and writes the
// collected cycle counts to CSV — the paper's run_xci.sh + collect_data.py
// pipeline in one binary.
//
// Rows are journaled to <out>.journal as they complete, so an interrupted
// run (Ctrl-C, node eviction) keeps everything already simulated: rerun it
// with the same flags and it resumes the journal, and the final CSV is
// byte-identical to an uninterrupted run, regardless of -workers. A journal
// of another run (a different seed, sample count, suite, evaluator or
// search) is refused and left as it is. The guarantee holds for the exact
// evaluator; -eval hybrid refuses any existing journal, because its
// routing depends on earlier results in the same run.
//
// Large collections spread over machines: dsegen -fleet ADDR coordinates
// instead of simulating. It leases contiguous config-index ranges of the
// exact fixed sweep to dsegen -worker processes over HTTP, one lease per
// worker at a time, reassigns the leases of workers that stop
// heartbeating, and merges the uploaded rows into a dataset byte-identical
// to a local run at any fleet size. A fleet
// opens the same <out>.journal the same way, so an interrupted exact run
// can be finished in either mode, and a killed coordinator rerun with the
// same flags leases only what the journal does not yet hold.
//
// A run is observable while it executes: a structured JSONL run journal
// (-runlog, default <out>.runlog.jsonl) records one line per configuration
// (per lease event in a fleet) plus heartbeats, and -http serves a live
// monitor — Prometheus /metrics, JSON /status (ETA, rows/sec, per-worker
// progress, slowest configs), /debug/vars and /debug/pprof. A fleet's
// address serves the same monitor over the whole fleet. Profiling is
// available without the server through -cpuprofile/-memprofile. All of it
// is purely observational: the output CSV is byte-identical with every
// telemetry feature enabled.
//
// Usage:
//
//	dsegen -samples 2000 -seed 1 -out dataset.csv [-workers 16] [-paper]
//	dsegen -samples 500 -seed 1 -out dataset.csv -search ucb -search-batch 50
//	dsegen -samples 2000 -seed 1 -out dataset.csv -http :8080
//	dsegen -samples 2000 -seed 1 -out dataset.csv -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	dsegen -samples 2000 -seed 1 -out dataset.csv -fleet :8070
//	dsegen -worker http://coord-host:8070   # on each fleet machine
//
// In -worker mode dsegen joins a fleet: the coordinator owns the run
// identity (seed, samples, suite, output), and the worker simulates the
// ranges it is leased.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"armdse/internal/dataset"
	"armdse/internal/fabric"
	"armdse/internal/obs"
	"armdse/internal/orchestrate"
	"armdse/internal/params"
	"armdse/internal/search"
	"armdse/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dsegen:", err)
		os.Exit(1)
	}
}

// batchSource wraps a possibly-nil proposer for the Batches option without
// producing a non-nil interface around a nil pointer (which would switch
// the engine into batch mode with no proposer).
func batchSource(p *search.Proposer) orchestrate.BatchSource {
	if p == nil {
		return nil
	}
	return p
}

// cli holds the parsed command line; set names the flags given on it.
type cli struct {
	samples, workers, srchBat, lease   int
	seed                               int64
	paper, quiet                       bool
	evalEsc                            float64
	linger, expiry                     time.Duration
	out, eval, srch, cpuProf, memProf  string
	httpAddr, runlog, worker, workerID string
	fleet                              string
	set                                map[string]bool
}

func parseFlags(args []string, stderr io.Writer) (*cli, error) {
	fs := flag.NewFlagSet("dsegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &cli{set: map[string]bool{}}
	fs.IntVar(&c.samples, "samples", 2000, "number of design-space configurations to simulate")
	fs.Int64Var(&c.seed, "seed", 1, "sampling seed (identical seeds reproduce identical datasets)")
	fs.StringVar(&c.out, "out", "dataset.csv", "output CSV path (rows journaled to <out>.journal while running; a rerun with the same flags resumes it)")
	fs.IntVar(&c.workers, "workers", 0, "worker pool size (0 = all cores)")
	fs.BoolVar(&c.paper, "paper", false, "use the paper's Table IV inputs (1-5 minute runs each, as in the study)")
	fs.StringVar(&c.eval, "eval", "", "per-config evaluator: exact (default) or hybrid (bounds + learned residual, escalating uncertain configs to exact)")
	fs.Float64Var(&c.evalEsc, "eval-escalate", 0, "hybrid escalation threshold on the residual forest's log spread (0 = default)")
	fs.StringVar(&c.srch, "search", "", "adaptive proposal strategy: uniform, ucb or ei (\"\" = classic fixed sweep)")
	fs.IntVar(&c.srchBat, "search-batch", 0, "adaptive proposal batch size: configs per generation (0 = default 64; each scores 8x as many candidates)")
	fs.BoolVar(&c.quiet, "q", false, "suppress progress and lease-event output")
	fs.StringVar(&c.cpuProf, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memProf, "memprofile", "", "write an allocation profile to this file at exit")
	fs.StringVar(&c.httpAddr, "http", "", "serve the live monitor (/metrics, /status, /debug/vars, /debug/pprof) on this address, e.g. :8080")
	fs.DurationVar(&c.linger, "http-linger", 2*time.Second, "keep the -http or -fleet server up this long after the dataset is written, so scrapers and still-polling workers see completion (interrupt exits early)")
	fs.StringVar(&c.runlog, "runlog", "", "structured JSONL run journal path (default <out>.runlog.jsonl; \"none\" disables)")
	fs.StringVar(&c.worker, "worker", "", "join a fleet at this coordinator URL (e.g. http://host:8070) instead of running a local sweep")
	fs.StringVar(&c.workerID, "worker-name", "", "worker identity reported to the coordinator (default host:pid)")
	fs.StringVar(&c.fleet, "fleet", "", "coordinate a fleet of dsegen -worker processes on this listen address instead of simulating locally (\":0\" picks a free port, printed at startup)")
	fs.IntVar(&c.lease, "lease", 16, "-fleet: configurations per lease; a worker simulates one lease at a time and uploads its rows in one request")
	fs.DurationVar(&c.expiry, "expiry", 30*time.Second, "-fleet: heartbeat deadline before an unresponsive worker's lease is reassigned")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) { c.set[f.Name] = true })
	return c, nil
}

// Flags meaningful in -fleet and -worker mode. A fleet runs the exact
// fixed sweep on its workers and its address already serves the monitor;
// a fleet worker takes its run parameters from the coordinator.
var (
	fleetAllowedFlags = map[string]bool{
		"fleet": true, "lease": true, "expiry": true,
		"samples": true, "seed": true, "out": true, "paper": true, "runlog": true,
		"http-linger": true, "q": true, "cpuprofile": true, "memprofile": true,
	}
	workerAllowedFlags = map[string]bool{
		"worker": true, "worker-name": true, "workers": true,
		"q": true, "cpuprofile": true, "memprofile": true,
	}
)

// refuseFlags names every flag on the command line that mode does not
// allow, sorted.
func (c *cli) refuseFlags(mode string, allowed map[string]bool, why string) error {
	var bad []string
	for name := range c.set {
		if !allowed[name] {
			bad = append(bad, "-"+name)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("%s cannot be combined with -%s: %s", strings.Join(bad, ", "), mode, why)
}

// validate rejects invalid flag combinations up front — before the
// journal, runlog or any other side effect exists — so a typo never leaves
// a stray file behind:
//
//   - -fleet and -worker each exclude the flags that do not apply to them
//     (a locally-set -seed on a worker would be silently ignored at best
//     and a split-brain run at worst);
//   - -lease and -expiry require -fleet, and each must be positive: the
//     coordinator would silently replace them with its defaults;
//   - -workers must not be negative (0 selects all cores);
//   - -eval must name a known evaluator;
//   - -search-batch requires -search and must not be negative: without
//     -search it would be silently ignored, and the proposer would silently
//     replace a negative value with its default.
func (c *cli) validate() error {
	if c.fleet != "" {
		if err := c.refuseFlags("fleet", fleetAllowedFlags,
			"a fleet runs the exact fixed sweep and its address serves the monitor"); err != nil {
			return err
		}
	}
	if c.worker != "" {
		if err := c.refuseFlags("worker", workerAllowedFlags,
			"a fleet worker takes its run parameters from the coordinator (compatible flags: -workers, -worker-name, -q, -cpuprofile, -memprofile)"); err != nil {
			return err
		}
	}
	if c.fleet == "" {
		for _, name := range []string{"lease", "expiry"} {
			if c.set[name] {
				return fmt.Errorf("-%s requires -fleet: it configures the coordinator's leases", name)
			}
		}
	}
	switch {
	case c.workers < 0:
		return fmt.Errorf("-workers %d < 0 (0 = all cores)", c.workers)
	case c.lease <= 0:
		return fmt.Errorf("-lease %d <= 0", c.lease)
	case c.expiry <= 0:
		return fmt.Errorf("-expiry %s <= 0", c.expiry)
	}
	if c.eval != "" && !slices.Contains(orchestrate.Evaluators(), c.eval) {
		return fmt.Errorf("unknown evaluator %q (want one of %v)", c.eval, orchestrate.Evaluators())
	}
	if c.srch == "" && c.set["search-batch"] {
		return errors.New("-search-batch requires -search: it configures the adaptive proposer and would be silently ignored by a fixed sweep")
	}
	if c.srchBat < 0 {
		return fmt.Errorf("-search-batch %d < 0", c.srchBat)
	}
	return nil
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	c, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	if err := c.validate(); err != nil {
		return err
	}
	if c.samples <= 0 {
		return fmt.Errorf("samples %d <= 0", c.samples)
	}
	stopProf, err := obs.StartProfile(c.cpuProf, c.memProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "dsegen: profile:", err)
		}
	}()
	var logw io.Writer
	if !c.quiet {
		logw = stderr
	}
	switch {
	case c.worker != "":
		return fabric.RunWorker(ctx, fabric.WorkerConfig{
			Coord:   strings.TrimRight(c.worker, "/"),
			Name:    c.workerID,
			Threads: c.workers,
			Log:     logw,
		})
	case c.fleet != "":
		return c.runFleet(ctx, stdout, stderr, logw)
	default:
		return c.runLocal(ctx, stdout, stderr)
	}
}

// runLocal simulates the run in this process.
func (c *cli) runLocal(ctx context.Context, stdout, stderr io.Writer) error {
	suite := workload.TestSuite()
	if c.paper {
		suite = workload.PaperSuite()
	}
	features := params.FeatureNames()
	apps := orchestrate.SuiteNames(suite)

	// Adaptive mode: a proposer feeds the engine generation-driven batches
	// of -samples configs in all instead of a fixed index range.
	var proposer *search.Proposer
	searchDigest := ""
	if c.srch != "" {
		// Barrier refits and pool scoring run while every simulation
		// worker waits, so they use the same pool size; proposals are
		// identical at any value.
		var err error
		proposer, err = search.NewProposer(search.ProposeOptions{
			Strategy: c.srch,
			Seed:     c.seed,
			Budget:   c.samples,
			Batch:    c.srchBat,
			Workers:  c.workers,
			Apps:     apps,
		})
		if err != nil {
			return err
		}
		searchDigest = proposer.Digest()
	}
	journal := c.out + ".journal"
	sw, resumed, err := dataset.OpenJournal(journal, features, apps, orchestrate.StallColumns(apps),
		orchestrate.RunMeta(c.seed, c.samples, c.paper, c.eval, searchDigest))
	if err != nil {
		return err
	}
	defer sw.Close()
	if resumed && c.eval == orchestrate.EvalHybrid {
		return fmt.Errorf("-eval hybrid does not resume %s: hybrid routing depends on every earlier result in the run, and the journal does not record which rows were escalated; remove it to start over", journal)
	}
	skip := sw.Done()
	if resumed && !c.quiet {
		fmt.Fprintf(stderr, "resuming %s: %d configs already journaled\n", journal, len(skip))
	}
	// Resuming an adaptive run must replay the proposal sequence: the
	// journaled rows re-enter as Prior (so each generation's proposer sees
	// exactly what it saw the first time) while Skip prevents re-simulation.
	var prior []orchestrate.Row
	if proposer != nil && len(skip) > 0 {
		prior, err = orchestrate.PriorRowsFromJournal(journal)
		if err != nil {
			return err
		}
	}

	// Telemetry: a JSONL run journal next to the dataset (default on),
	// created only now that the journal is accepted, and an optional live
	// monitor server. Both are purely observational — the CSV is
	// byte-identical with them enabled.
	runlogPath := obs.RunlogPath(c.runlog, c.out)
	resolvedWorkers := c.workers
	if resolvedWorkers <= 0 {
		resolvedWorkers = runtime.GOMAXPROCS(0)
	}
	var tel *orchestrate.Telemetry
	var rj *obs.Journal
	if c.httpAddr != "" || runlogPath != "" {
		reg := obs.NewRegistry(resolvedWorkers)
		if runlogPath != "" {
			rj, err = obs.CreateJournal(runlogPath)
			if err != nil {
				return err
			}
			defer func() {
				if rj != nil {
					rj.Close()
				}
			}()
		}
		tel = orchestrate.NewTelemetry(reg, rj)
		if c.httpAddr != "" {
			srv, bound, err := obs.Serve(c.httpAddr, obs.Handler(reg, tel.StatusAny))
			if err != nil {
				return err
			}
			defer srv.Close()
			// Printed even under -q: with ":0" the bound port is only
			// discoverable from this line.
			fmt.Fprintf(stderr, "monitor: http://%s/\n", bound)
		}
	}
	if err := tel.JournalMeta(c.seed, c.samples, resolvedWorkers, len(skip), searchDigest, apps); err != nil {
		return err
	}

	start := time.Now()
	opt := orchestrate.Options{
		Seed:         c.seed,
		Samples:      c.samples,
		Batches:      batchSource(proposer),
		Prior:        prior,
		Workers:      c.workers,
		Suite:        suite,
		Eval:         c.eval,
		EvalEscalate: c.evalEsc,
		Validate:     true,
		Sink:         orchestrate.StreamSink{W: sw},
		Skip:         func(i int) bool { return skip[i] },
		Telemetry:    tel,
	}
	if !c.quiet {
		opt.Progress = func(ev orchestrate.ProgressEvent) {
			if ev.Done%50 == 0 || ev.Done == ev.Total {
				fmt.Fprintf(stderr, "\r%d/%d configs (%.1f/s, %d failed, %.3g cycles, eta %s)   ",
					ev.Done, ev.Total, ev.RowsPerSec, ev.Failed, float64(ev.Cycles), ev.ETA.Round(time.Second))
			}
		}
	}

	res, collectErr := orchestrate.Collect(ctx, opt)
	if !c.quiet {
		fmt.Fprintln(stderr)
	}
	if err := sw.Close(); err != nil {
		return err
	}
	if collectErr != nil {
		if errors.Is(collectErr, context.Canceled) {
			next := "rerun with the same flags to continue"
			if c.eval == orchestrate.EvalHybrid {
				next = "-eval hybrid does not resume it; remove it to start over"
			}
			fmt.Fprintf(stderr, "interrupted: %d configs this run (%d total) journaled in %s; %s\n",
				res.Done, sw.Len(), journal, next)
		}
		return collectErr
	}

	data, failed, err := dataset.CompactStream(journal)
	if err != nil {
		return err
	}
	closeLog := func() error {
		if err := tel.JournalSummary(data.Len(), failed, time.Since(start)); err != nil {
			return err
		}
		if rj == nil {
			return nil
		}
		err := rj.Close()
		rj = nil
		return err
	}
	return c.finish(ctx, stdout, stderr, start, data, failed,
		func() error { return os.Remove(journal) }, closeLog, "")
}

// runFleet coordinates a fleet of dsegen -worker processes: it leases the
// run's index ranges to them, journals their uploads and merges the
// journal once every lease has completed.
func (c *cli) runFleet(ctx context.Context, stdout, stderr, logw io.Writer) error {
	start := time.Now()
	coord, err := fabric.NewCoordinator(fabric.CoordConfig{
		Spec:      fabric.NewSpec(c.seed, c.samples, c.paper),
		Out:       c.out,
		LeaseSize: c.lease,
		Expiry:    c.expiry,
		Runlog:    obs.RunlogPath(c.runlog, c.out),
		Log:       logw,
	})
	if err != nil {
		return err
	}
	defer coord.Close()
	srv, bound, err := obs.Serve(c.fleet, coord.Handler())
	if err != nil {
		return err
	}
	defer srv.Close()
	// Printed even under -q: with ":0" the bound port is only discoverable
	// from this line.
	fmt.Fprintf(stderr, "coordinator: http://%s/\n", bound)

	stopSweep := coord.StartExpirySweep(max(c.expiry/2, 50*time.Millisecond))
	defer stopSweep()

	if err := coord.Wait(ctx); err != nil {
		st := coord.Status()
		fmt.Fprintf(stderr, "interrupted: %d/%d configs journaled in %s.journal; rerun with the same flags to continue\n", st.Done, st.Total, c.out)
		return err
	}
	data, failed, err := coord.Merge()
	if err != nil {
		return err
	}
	st := coord.Status()
	return c.finish(ctx, stdout, stderr, start, data, failed, coord.Cleanup,
		func() error { return coord.Finish(data.Len(), failed) },
		fmt.Sprintf(" [%d workers, %d grants, %d expiries]", len(st.Workers), st.LeaseGrants, st.LeaseExpiries))
}

// finish writes a completed collection to -out, then removes its journal,
// writes the runlog's summary record and closes it (closeLog), reports and
// lingers while a monitor or fleet server is up. A failed save or removal
// returns before closeLog, so a runlog without a summary marks a run whose
// journal may still hold its rows. The journal stays when every
// configuration failed.
func (c *cli) finish(ctx context.Context, stdout, stderr io.Writer, start time.Time, data *dataset.Dataset, failed int,
	removeJournal, closeLog func() error, suffix string) error {
	if data.Len() == 0 {
		return fmt.Errorf("every configuration failed; journal kept at %s.journal", c.out)
	}
	if err := data.SaveFile(c.out); err != nil {
		return err
	}
	if err := removeJournal(); err != nil {
		return err
	}
	if err := closeLog(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s: %d rows x %d features (+%d app targets), %d failed configs, %s%s\n",
		c.out, data.Len(), data.NumFeatures(), len(data.Apps), failed,
		time.Since(start).Round(time.Second), suffix)
	if (c.httpAddr != "" || c.fleet != "") && c.linger > 0 {
		if !c.quiet {
			fmt.Fprintf(stderr, "monitor lingering %s (interrupt to exit)\n", c.linger)
		}
		select {
		case <-ctx.Done():
		case <-time.After(c.linger):
		}
	}
	return nil
}
