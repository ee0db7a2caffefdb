// Command dsepaper regenerates every table and figure of the paper's
// evaluation (Fig. 1, Tables I-IV, Figs. 2-8), printing each and optionally
// writing the rendered text plus the collected dataset to a directory —
// the one-shot reproduction driver. -ext adds the extension experiments
// (extports, extunified, extprefetch, extforest, extmulticore, extstalls);
// -data reuses a collected CSV for every experiment that trains on one.
//
// Usage:
//
//	dsepaper [-samples 2000] [-seed 1] [-only fig3] [-ext] [-out results/] [-data ds.csv]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"armdse"
	"armdse/internal/atomicfile"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dsepaper:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dsepaper", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		samples = fs.Int("samples", 2000, "dataset size for the experiments that train surrogates on a collected dataset")
		seed    = fs.Int64("seed", 1, "seed for sampling, splitting and shuffling")
		workers = fs.Int("workers", 0, "worker pool size (0 = all cores)")
		only    = fs.String("only", "", "run a single experiment id (fig1, table1..table4, fig2..fig8, ext*)")
		ext     = fs.Bool("ext", false, "also run the extension experiments ("+strings.Join(extIDs(), ", ")+")")
		outDir  = fs.String("out", "", "also write each result and the dataset into this directory")
		dataIn  = fs.String("data", "", "reuse a previously collected dataset CSV instead of simulating")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opt := armdse.ExperimentOptions{Samples: *samples, Seed: *seed, Workers: *workers}

	runners := armdse.Experiments()
	if *ext {
		runners = armdse.ExperimentsWithExtensions()
	}
	if *only != "" {
		r, err := armdse.ExperimentByID(*only)
		if err != nil {
			return err
		}
		runners = []armdse.ExperimentRunner{r}
	}

	// Load or collect the shared dataset once if any requested experiment
	// reads it.
	needsData := false
	for _, r := range runners {
		needsData = needsData || r.SharedData
	}
	if needsData && *dataIn != "" {
		data, err := armdse.LoadDataset(*dataIn)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "reusing %d rows from %s\n", data.Len(), *dataIn)
		opt.Data = data
		needsData = false
	}
	if needsData {
		start := time.Now()
		fmt.Fprintf(stderr, "collecting dataset (%d samples)...\n", *samples)
		opt.Progress = func(ev armdse.ProgressEvent) {
			if ev.Done%100 == 0 || ev.Done == ev.Total {
				fmt.Fprintf(stderr, "\r%d/%d configs (%.1f/s, %d failed)   ",
					ev.Done, ev.Total, ev.RowsPerSec, ev.Failed)
			}
		}
		data, err := armdse.CollectExperimentData(ctx, opt)
		fmt.Fprintln(stderr)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "collected %d rows in %s\n", data.Len(), time.Since(start).Round(time.Second))
		opt.Data = data
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			if err := data.SaveFile(filepath.Join(*outDir, "dataset.csv")); err != nil {
				return err
			}
		}
	}

	failures := 0
	for _, r := range runners {
		start := time.Now()
		res, err := r.Run(ctx, opt)
		if err != nil {
			fmt.Fprintf(stderr, "dsepaper: %s failed: %v\n", r.ID, err)
			failures++
			continue
		}
		text := res.String()
		fmt.Fprintf(stdout, "%s[%s in %s]\n\n", text, r.ID, time.Since(start).Round(time.Second))
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(*outDir, r.ID+".txt")
			err := atomicfile.Write(path, func(w io.Writer) error {
				_, err := io.WriteString(w, strings.TrimLeft(text, "\n"))
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) failed", failures)
	}
	return nil
}

// extIDs lists the extension experiments -ext adds to the paper's.
func extIDs() []string {
	var ids []string
	for _, r := range armdse.ExperimentsWithExtensions()[len(armdse.Experiments()):] {
		ids = append(ids, r.ID)
	}
	return ids
}
