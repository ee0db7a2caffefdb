// Command perfbench is the repository benchmark. Each run is one workload
// the way a user meets it: dsegen collects a dataset (journal, then
// compaction) and dseanalyze trains the per-app decision-tree surrogates and
// ranks parameter importance. It prints the study-level end-to-end metrics
// (-trace 0) or the per-layer metrics of a separate traced run (-trace 1) as
// the last line of standard output, after checking the outputs are correct.
//
// Usage (normally through run.py, which builds this package first):
//
//	perfbench -workload exact-sweep -seed 1 -seconds 45 -trace 0
//	perfbench -selftest ../BENCHMARK.json
//
// README.md explains the workloads, the metrics and the noise profile.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// maxThreads caps simulation threads: the benchmark is defined on 2 cores.
const maxThreads = 2

// setupSamples is how many set-up probes an untraced run makes, in the
// fresh process before its studies, as a user's dsegen or dsecoord starts.
// setup_s is the fastest of them: a set-up takes a few milliseconds, and
// host steal and scheduling delays only ever add to a probe, so the minimum
// of many cheap probes moves least with the host (README.md, noise).
const setupSamples = 201

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     string
	workdir  string
	record   bool
	commit   string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl       = fs.String("workload", "", "workload to run: exact-sweep or adaptive-ucb")
		seed     = fs.Int64("seed", defaultSeed, "input seed: configurations, proposals and analysis splits derive from it")
		seconds  = fs.Float64("seconds", 45, "measurement time: whole studies of the same inputs repeat up to the study boundary nearest it (at least one)")
		trace    = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		size     = fs.String("size", "full", "workload size: full, or tiny for smoke tests")
		workdir  = fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for datasets and traces")
		selftest = fs.String("selftest", "", "run every workload at tiny size and check its metrics against this BENCHMARK.json")
		record   = fs.Bool("record", false, "print each study's dataset digest and the surrogate accuracy (to refresh goldenSHA256 and goldenSurrogateAccPct)")
		commit   = fs.String("commit", "unknown", "commit of the measured code, recorded in the provenance line")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *selftest != "" {
		if err := selfTest(*selftest, *workdir, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench: selftest:", err)
			return 1
		}
		fmt.Fprintln(stderr, "perfbench: selftest passed")
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	opt := options{workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1, size: *size, workdir: *workdir, record: *record, commit: *commit}
	res, prov, err := runWorkload(context.Background(), opt, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if b, err := json.Marshal(map[string]any{"provenance": prov}); err == nil {
		fmt.Fprintln(stdout, string(b))
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload and returns its result line and provenance.
func runWorkload(ctx context.Context, opt options, stderr io.Writer) (result, map[string]any, error) {
	defs, err := workloadDefs(opt.size)
	if err != nil {
		return result{}, nil, err
	}
	def, ok := defs[opt.workload]
	if !ok {
		names := make([]string, 0, len(defs))
		for n := range defs {
			names = append(names, n)
		}
		sort.Strings(names)
		return result{}, nil, fmt.Errorf("unknown workload %q (want one of %s)", opt.workload, strings.Join(names, ", "))
	}
	threads := min(maxThreads, runtime.NumCPU())
	workdir := filepath.Join(opt.workdir, fmt.Sprintf("%s-%d", def.Name, os.Getpid()))
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(workdir)

	prov := provenance(opt, threads)
	steal0 := readCPUStat()
	r := &runner{def: def, seed: opt.seed, threads: threads, workdir: workdir}
	var res result
	if opt.trace {
		res, err = runTraced(ctx, r, opt, stderr)
	} else {
		res, err = runUntraced(ctx, r, opt, stderr)
	}
	prov["steal_pct"] = stealPct(steal0, readCPUStat())
	return res, prov, err
}

// runUntraced repeats whole studies of the same inputs until the study
// boundary nearest the measurement time, and reports each end-to-end metric
// as the median over them.
func runUntraced(ctx context.Context, r *runner, opt options, stderr io.Writer) (result, error) {
	var setup []float64
	for probe := 0; probe < setupSamples; probe++ {
		d, err := r.setupProbe(ctx, probe)
		if err != nil {
			return result{}, err
		}
		setup = append(setup, d.Seconds())
	}
	var studies []*study
	start := time.Now()
	for rep := 0; ; rep++ {
		s, err := r.study(ctx, rep, plain)
		if err != nil {
			return result{}, err
		}
		studies = append(studies, s)
		if opt.record {
			fmt.Fprintf(stderr, "digest %s/%s seed %d: %s\n", opt.size, r.def.Name, r.seed, s.sha)
		}
		elapsed := time.Since(start).Seconds()
		if elapsed+elapsed/float64(2*(rep+1)) >= opt.seconds {
			break
		}
	}
	var rss []float64
	for _, s := range studies {
		rss = append(rss, s.peakRSSMB)
	}

	first := studies[0]
	v := check(r, first, opt.size)
	acc, err := r.surrogateAccuracy(first)
	if err != nil {
		return result{}, err
	}
	if opt.record {
		fmt.Fprintf(stderr, "surrogate_acc_pct %s/%s seed %d: %v\n", opt.size, r.def.Name, r.seed, acc)
	}
	v.checkSurrogateAccuracy(r, opt.size, acc)
	attempted, failed := 0, 0
	var rate, studyS, wallRate, wallS []float64
	for i, s := range studies {
		if s.sha != first.sha || s.accPct != first.accPct {
			v.fail(-1, "study %d differs from study 0 on the same inputs", i)
		}
		attempted += s.attempted
		failed += s.failed
		rate = append(rate, s.configsPerSec())
		studyS = append(studyS, s.studySeconds())
		wallRate = append(wallRate, float64(s.attempted-s.failed)/s.collect.Seconds())
		wallS = append(wallS, s.wallSeconds())
	}
	failed += len(v.badConfigs) * len(studies)
	for _, p := range v.problems {
		fmt.Fprintln(stderr, "perfbench: check:", p)
	}
	fmt.Fprintf(stderr, "perfbench: %s seed %d: %d studies, %d reference simulations; before the steal correction configs_per_s %.4g, study_s %.4g\n",
		r.def.Name, r.seed, len(studies), v.referenceRuns, median(wallRate), median(wallS))
	return result{
		Correct:   len(v.problems) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":              {minOf(setup), "s"},
			"configs_per_s":        {median(rate), "1/s"},
			"study_s":              {median(studyS), "s"},
			"peak_rss_mb":          {median(rss), "MB"},
			"dataset_accuracy_pct": {v.accuracyPct, "%"},
			"surrogate_acc_pct":    {acc, "%"},
			"front_hv":             {frontHV(first.data, first.rows), "ratio"},
		},
	}, nil
}

// resetPeakRSS restarts the kernel's peak resident set count (VmHWM, which
// getrusage reports as maxrss), so each study's peak is its own.
func resetPeakRSS() {
	// Without clear_refs the peak stays process-wide: later studies then
	// report the run's peak so far, which can only overstate.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set size since the last resetPeakRSS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
