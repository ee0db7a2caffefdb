// Command dsegen generates a dataset: it samples the design space, simulates
// every application on each configuration across all cores, and writes the
// collected cycle counts to CSV — the paper's run_xci.sh + collect_data.py
// pipeline in one binary.
//
// Rows are journaled to <out>.journal as they complete, so an interrupted
// run (Ctrl-C, node eviction) keeps everything already simulated and can be
// restarted with -resume; the final CSV is byte-identical to an
// uninterrupted run with the same seed, regardless of -workers. The
// guarantee holds for the exact evaluator; -eval hybrid refuses -resume,
// because its routing depends on earlier results in the same run. Large
// collections spread over machines run as a dsecoord fleet, which journals
// to the same <out>.journal: an interrupted exact run can be finished by
// either tool.
//
// A run is observable while it executes: a structured JSONL run journal
// (-runlog, default <out>.runlog.jsonl) records one line per configuration
// plus heartbeats, and -http serves a live monitor — Prometheus /metrics,
// JSON /status (ETA, rows/sec, per-worker progress, slowest configs),
// /debug/vars and /debug/pprof. Profiling is available without the server
// through -cpuprofile/-memprofile. All of it is purely observational: the
// output CSV is byte-identical with every telemetry feature enabled.
//
// Usage:
//
//	dsegen -samples 2000 -seed 1 -out dataset.csv [-workers 16] [-paper]
//	dsegen -samples 2000 -seed 1 -out dataset.csv -resume
//	dsegen -seed 1 -out dataset.csv -search ucb -search-budget 500 -search-batch 50
//	dsegen -samples 2000 -seed 1 -out dataset.csv -http :8080
//	dsegen -samples 2000 -seed 1 -out dataset.csv -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	dsegen -worker http://coord-host:8070
//
// In -worker mode dsegen joins a dsecoord fleet: the coordinator owns the
// run identity (seed, samples, suite, output), leases contiguous
// config-index ranges to each worker, and merges the uploaded rows into one
// dataset byte-identical to a single-process run — see cmd/dsecoord.
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

	"armdse"
	"armdse/internal/fabric"
	"armdse/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dsegen:", err)
		os.Exit(1)
	}
}

// journalMeta identifies the dataset a journal belongs to, so -resume
// refuses a journal from a run with a different seed, sample count, suite,
// or evaluator. Workers are excluded: they may change across a resume
// without affecting which rows the journal holds. The evaluator is
// included only when non-exact, keeping old exact journals resumable, and
// makes resuming an exact journal under -eval hybrid (or vice versa) an
// error — that would silently mix simulated and predicted rows. An adaptive
// run additionally stamps its proposer digest (strategy, seed, budget,
// batch geometry): a proposed-batch journal resumed under different search
// settings would replay a different proposal sequence, so it is rejected
// the same way.
func journalMeta(seed int64, samples int, paper bool, eval, searchDigest string) string {
	m := fmt.Sprintf("seed=%d samples=%d paper=%t", seed, samples, paper)
	if eval != "" && eval != armdse.EvalExact {
		m += " eval=" + eval
	}
	if searchDigest != "" {
		m += " search=" + searchDigest
	}
	return m
}

// batchSource wraps a possibly-nil proposer for the Batches option without
// producing a non-nil interface around a nil pointer (which would switch
// the engine into batch mode with no proposer).
func batchSource(p *armdse.Proposer) armdse.BatchSource {
	if p == nil {
		return nil
	}
	return p
}

// workerAllowedFlags are the flags meaningful in -worker mode: everything
// else describes a local run, whose parameters a fleet worker takes from
// the coordinator instead.
var workerAllowedFlags = map[string]bool{
	"worker": true, "worker-name": true, "workers": true,
	"q": true, "cpuprofile": true, "memprofile": true,
}

// validateFlags rejects invalid flag combinations up front — before the
// journal, runlog or any other side effect exists — so a typo never leaves
// a stray file behind:
//
//   - -worker excludes every run-parameter flag (the coordinator owns the
//     run identity; a locally-set -seed or -samples would be silently
//     ignored at best and a split-brain run at worst);
//   - -eval must name a known evaluator (previously checked deep inside
//     the engine, after the journal was created);
//   - -eval hybrid excludes -resume: its routing depends on every earlier
//     result in the run, and the journal does not record which rows were
//     escalated, so a resumed run would not reproduce the uninterrupted
//     run;
//   - the search-subordinate flags (-search-budget ... -search-kappa)
//     require -search: without it they would be silently ignored;
//   - -search-budget, -search-batch and -search-pool must not be negative:
//     the proposer would silently replace them with their defaults.
func validateFlags(fs *flag.FlagSet, worker, eval, search string, resume bool) error {
	if worker != "" {
		var bad []string
		fs.Visit(func(f *flag.Flag) {
			if !workerAllowedFlags[f.Name] {
				bad = append(bad, "-"+f.Name)
			}
		})
		if len(bad) > 0 {
			sort.Strings(bad)
			return fmt.Errorf("%s cannot be combined with -worker: a fleet worker takes its run parameters from the coordinator (compatible flags: -workers, -worker-name, -q, -cpuprofile, -memprofile)",
				strings.Join(bad, ", "))
		}
	}
	if eval != "" && !slices.Contains(armdse.Evaluators(), eval) {
		return fmt.Errorf("unknown evaluator %q (want one of %v)", eval, armdse.Evaluators())
	}
	if eval == armdse.EvalHybrid && resume {
		return fmt.Errorf("-eval hybrid cannot be combined with -resume: hybrid routing depends on every earlier result in the run, and the journal does not record which rows were escalated")
	}
	if search == "" {
		var bad []string
		fs.Visit(func(f *flag.Flag) {
			if searchSubFlags[f.Name] {
				bad = append(bad, "-"+f.Name)
			}
		})
		if len(bad) > 0 {
			sort.Strings(bad)
			return fmt.Errorf("%s require(s) -search: these flags configure the adaptive proposer and would be silently ignored by a fixed sweep",
				strings.Join(bad, ", "))
		}
	}
	for _, name := range []string{"search-budget", "search-batch", "search-pool"} {
		if v := fs.Lookup(name).Value.(flag.Getter).Get().(int); v < 0 {
			return fmt.Errorf("-%s %d < 0", name, v)
		}
	}
	return nil
}

// searchSubFlags are the flags that only configure the adaptive proposer —
// meaningless, and therefore rejected, without -search.
var searchSubFlags = map[string]bool{
	"search-budget": true, "search-batch": true, "search-pool": true,
	"search-kappa": true,
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dsegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		samples  = fs.Int("samples", 2000, "number of design-space configurations to simulate")
		seed     = fs.Int64("seed", 1, "sampling seed (identical seeds reproduce identical datasets)")
		out      = fs.String("out", "dataset.csv", "output CSV path (rows journaled to <out>.journal while running)")
		workers  = fs.Int("workers", 0, "worker pool size (0 = all cores)")
		paper    = fs.Bool("paper", false, "use the paper's Table IV inputs (1-5 minute runs each, as in the study)")
		resume   = fs.Bool("resume", false, "resume an interrupted run from <out>.journal, skipping completed configs")
		eval     = fs.String("eval", "", "per-config evaluator: exact (default) or hybrid (bounds + learned residual, escalating uncertain configs to exact)")
		evalEsc  = fs.Float64("eval-escalate", 0, "hybrid escalation threshold on the residual forest's log spread (0 = default)")
		srch     = fs.String("search", "", "adaptive proposal strategy: uniform, ucb or ei (\"\" = classic fixed sweep)")
		srchBud  = fs.Int("search-budget", 0, "adaptive run total config budget (0 = -samples)")
		srchBat  = fs.Int("search-batch", 0, "adaptive proposal batch size: configs per generation (0 = default 64)")
		srchPool = fs.Int("search-pool", 0, "adaptive candidate pool per batch (0 = default 8x batch)")
		srchKap  = fs.Float64("search-kappa", 0, "ucb exploration weight on the forest spread (0 = default 2.0)")
		quiet    = fs.Bool("q", false, "suppress progress output")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write an allocation profile to this file at exit")
		httpAddr = fs.String("http", "", "serve the live monitor (/metrics, /status, /debug/vars, /debug/pprof) on this address, e.g. :8080")
		linger   = fs.Duration("http-linger", 0, "keep the -http server up this long after the sweep finishes (for scrapers; interrupt exits early)")
		runlog   = fs.String("runlog", "", "structured JSONL run journal path (default <out>.runlog.jsonl; \"none\" disables)")
		worker   = fs.String("worker", "", "join a dsecoord fleet at this coordinator URL (e.g. http://host:8070) instead of running a local sweep")
		workerID = fs.String("worker-name", "", "worker identity reported to the coordinator (default host:pid)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateFlags(fs, *worker, *eval, *srch, *resume); err != nil {
		return err
	}
	if *samples <= 0 {
		return fmt.Errorf("samples %d <= 0", *samples)
	}
	stopProf, err := obs.StartProfile(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "dsegen: profile:", err)
		}
	}()
	if *worker != "" {
		var logw io.Writer
		if !*quiet {
			logw = stderr
		}
		return fabric.RunWorker(ctx, fabric.WorkerConfig{
			Coord:   strings.TrimRight(*worker, "/"),
			Name:    *workerID,
			Threads: *workers,
			Log:     logw,
		})
	}
	suite := armdse.TestSuite()
	if *paper {
		suite = armdse.PaperSuite()
	}
	features := armdse.FeatureNames()
	apps := armdse.SuiteNames(suite)

	// Adaptive mode: a proposer feeds the engine generation-driven batches
	// instead of a fixed index range.
	var proposer *armdse.Proposer
	budget := *samples
	if *srch != "" {
		if *srchBud > 0 {
			budget = *srchBud
		}
		// Barrier refits and pool scoring run while every simulation
		// worker waits, so they use the same pool size; proposals are
		// identical at any value.
		proposer, err = armdse.NewProposer(armdse.ProposeOptions{
			Strategy: *srch,
			Seed:     *seed,
			Budget:   budget,
			Batch:    *srchBat,
			Pool:     *srchPool,
			Kappa:    *srchKap,
			Workers:  *workers,
			Apps:     apps,
		})
		if err != nil {
			return err
		}
	}
	searchDigest := ""
	if proposer != nil {
		searchDigest = proposer.Digest()
	}
	journal := *out + ".journal"
	meta := journalMeta(*seed, budget, *paper, *eval, searchDigest)

	aux := armdse.StallColumns(apps)

	var sw *armdse.StreamWriter
	if *resume {
		// Resuming a pre-stall-column (schema v1) journal keeps its layout:
		// ResumeStreamAux drops the aux columns rather than rejecting it.
		sw, err = armdse.ResumeStreamAux(journal, features, apps, aux, meta)
		if errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(stderr, "no journal at %s; starting fresh\n", journal)
			sw, err = armdse.CreateStreamAux(journal, features, apps, aux, meta)
		}
	} else {
		sw, err = armdse.CreateStreamAux(journal, features, apps, aux, meta)
	}
	if err != nil {
		return err
	}
	skip := sw.Done()
	if *resume && len(skip) > 0 && !*quiet {
		fmt.Fprintf(stderr, "resuming: %d configs already journaled\n", len(skip))
	}
	// Resuming an adaptive run must replay the proposal sequence: the
	// journaled rows re-enter as Prior (so each generation's proposer sees
	// exactly what it saw the first time) while Skip prevents re-simulation.
	var prior []armdse.Row
	if proposer != nil && *resume && len(skip) > 0 {
		prior, err = armdse.PriorRowsFromJournal(journal)
		if err != nil {
			return err
		}
	}

	// Telemetry: a JSONL run journal next to the dataset (default on) and an
	// optional live monitor server. Both are purely observational — the CSV
	// is byte-identical with them enabled.
	runlogPath := *runlog
	if runlogPath == "" {
		runlogPath = *out + ".runlog.jsonl"
	}
	if runlogPath == "none" || runlogPath == "off" {
		runlogPath = ""
	}
	resolvedWorkers := *workers
	if resolvedWorkers <= 0 {
		resolvedWorkers = runtime.GOMAXPROCS(0)
	}
	var tel *armdse.Telemetry
	var rj *armdse.RunJournal
	if *httpAddr != "" || runlogPath != "" {
		reg := armdse.NewMetricsRegistry(resolvedWorkers)
		if runlogPath != "" {
			rj, err = armdse.CreateRunJournal(runlogPath)
			if err != nil {
				return err
			}
			defer func() {
				if rj != nil {
					rj.Close()
				}
			}()
		}
		tel = armdse.NewTelemetry(reg, rj)
		tel.Search = searchDigest
		if *httpAddr != "" {
			srv, bound, err := armdse.ServeTelemetry(*httpAddr, armdse.TelemetryHandler(reg, tel.StatusAny))
			if err != nil {
				return err
			}
			defer srv.Close()
			// Printed even under -q: with ":0" the bound port is only
			// discoverable from this line.
			fmt.Fprintf(stderr, "monitor: http://%s/\n", bound)
		}
	}
	if err := tel.JournalMeta(*seed, budget, resolvedWorkers, apps); err != nil {
		return err
	}

	start := time.Now()
	opt := armdse.CollectOptions{
		Seed:         *seed,
		Samples:      *samples,
		Batches:      batchSource(proposer),
		Prior:        prior,
		Workers:      *workers,
		Suite:        suite,
		Eval:         *eval,
		EvalEscalate: *evalEsc,
		Validate:     true,
		Sink:         armdse.NewStreamSink(sw),
		Skip:         func(i int) bool { return skip[i] },
		Telemetry:    tel,
	}
	if !*quiet {
		opt.Progress = func(ev armdse.ProgressEvent) {
			if ev.Done%50 == 0 || ev.Done == ev.Total {
				fmt.Fprintf(stderr, "\r%d/%d configs (%.1f/s, %d failed, %.3g cycles, eta %s)   ",
					ev.Done, ev.Total, ev.RowsPerSec, ev.Failed, float64(ev.Cycles), ev.ETA.Round(time.Second))
			}
		}
	}

	res, collectErr := armdse.Collect(ctx, opt)
	if !*quiet {
		fmt.Fprintln(stderr)
	}
	if err := sw.Close(); err != nil {
		return err
	}
	if collectErr != nil {
		if errors.Is(collectErr, context.Canceled) {
			fmt.Fprintf(stderr, "interrupted: %d configs this run (%d total) journaled in %s; rerun with -resume to continue\n",
				res.Done, sw.Len(), journal)
		}
		return collectErr
	}

	data, failed, err := armdse.CompactStream(journal)
	if err != nil {
		return err
	}
	if data.Len() == 0 {
		return fmt.Errorf("every configuration failed; journal kept at %s", journal)
	}
	if err := data.SaveFile(*out); err != nil {
		return err
	}
	if err := os.Remove(journal); err != nil {
		return err
	}
	if err := tel.JournalSummary(data.Len(), failed, time.Since(start)); err != nil {
		return err
	}
	if rj != nil {
		err := rj.Close()
		rj = nil
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "wrote %s: %d rows x %d features (+%d app targets), %d failed configs, %s\n",
		*out, data.Len(), data.NumFeatures(), len(data.Apps), failed,
		time.Since(start).Round(time.Second))
	if *httpAddr != "" && *linger > 0 {
		if !*quiet {
			fmt.Fprintf(stderr, "monitor lingering %s (interrupt to exit)\n", *linger)
		}
		select {
		case <-ctx.Done():
		case <-time.After(*linger):
		}
	}
	return nil
}
