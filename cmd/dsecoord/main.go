// Command dsecoord coordinates a distributed dataset collection: it leases
// contiguous config-index ranges of one sampling stream (seed, samples,
// suite) to dsegen -worker processes over HTTP, survives worker loss
// through heartbeat-driven lease expiry and reassignment, splits straggling
// leases so idle workers can steal their un-started tails, and merges the
// uploaded rows into a dataset byte-identical to a single-process
// `dsegen -samples N -seed S` run — at any fleet size, including fleets
// whose workers die mid-lease.
//
// Workers carrying a different seed/samples/suite identity or a different
// column layout (a mismatched build) are rejected, and an upload that
// disagrees with a row already journaled is refused rather than silently
// corrupting the dataset.
//
// Every committed row is journaled to <out>.journal, in the format dsegen
// journals to. After a crash, rerun dsecoord with the same flags (and start
// workers again): it resumes the journal and leases only the configurations
// it does not yet hold. The journal is dsegen's, so an interrupted
// `dsegen -out <out>` run can be finished by a fleet, and an interrupted
// fleet by `dsegen -out <out> -resume`.
//
// The listen address doubles as the monitor: /metrics (Prometheus),
// /status (JSON fleet view: lease states, per-worker rows/sec, fleet ETA),
// /debug/vars and /debug/pprof, exactly like dsegen -http. A JSONL runlog
// (-runlog) records lease grants/expiries/steals and fleet heartbeats,
// validating against scripts/runlog.schema.json.
//
// Usage:
//
//	dsecoord -samples 2000 -seed 1 -out dataset.csv -addr :8070
//	dsegen -worker http://host:8070        # on each fleet machine
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"armdse/internal/fabric"
	"armdse/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dsecoord:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dsecoord", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", "127.0.0.1:8070", "listen address for workers and the monitor (\":0\" picks a free port, printed at startup)")
		samples = fs.Int("samples", 2000, "number of design-space configurations to collect across the fleet")
		seed    = fs.Int64("seed", 1, "sampling seed (identical seeds reproduce identical datasets)")
		out     = fs.String("out", "dataset.csv", "output CSV path (rows journaled to <out>.journal while running; a rerun with the same flags resumes it)")
		paper   = fs.Bool("paper", false, "use the paper's Table IV inputs (1-5 minute runs each, as in the study)")
		lease   = fs.Int("lease", 64, "configurations per lease")
		chunk   = fs.Int("chunk", 16, "configurations per worker check-in: the advance granularity and minimum steal split")
		expiry  = fs.Duration("expiry", 30*time.Second, "heartbeat deadline before an unresponsive worker's lease is reassigned")
		runlog  = fs.String("runlog", "", "structured JSONL run journal path (default <out>.runlog.jsonl; \"none\" disables)")
		linger  = fs.Duration("linger", 2*time.Second, "keep serving this long after the dataset is written, so still-polling workers observe completion instead of a vanished coordinator")
		quiet   = fs.Bool("q", false, "suppress lease-event output")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *samples <= 0 {
		return fmt.Errorf("samples %d <= 0", *samples)
	}
	// Lease geometry is checked before the runlog or journal exists; the
	// coordinator would silently replace these with its defaults.
	switch {
	case *lease <= 0:
		return fmt.Errorf("-lease %d <= 0", *lease)
	case *chunk <= 0:
		return fmt.Errorf("-chunk %d <= 0", *chunk)
	case *chunk > *lease:
		return fmt.Errorf("-chunk %d > -lease %d: a chunk is a slice of one lease", *chunk, *lease)
	case *expiry <= 0:
		return fmt.Errorf("-expiry %s <= 0", *expiry)
	}

	runlogPath := *runlog
	if runlogPath == "" {
		runlogPath = *out + ".runlog.jsonl"
	}
	if runlogPath == "none" || runlogPath == "off" {
		runlogPath = ""
	}
	var rj *obs.Journal
	if runlogPath != "" {
		var err error
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

	var logw io.Writer
	if !*quiet {
		logw = stderr
	}
	start := time.Now()
	coord, err := fabric.NewCoordinator(fabric.CoordConfig{
		Spec:      fabric.NewSpec(*seed, *samples, *paper),
		Out:       *out,
		LeaseSize: *lease,
		Chunk:     *chunk,
		Expiry:    *expiry,
		Runlog:    rj,
		Log:       logw,
	})
	if err != nil {
		return err
	}
	srv, bound, err := obs.Serve(*addr, coord.Handler())
	if err != nil {
		return err
	}
	defer srv.Close()
	// Printed even under -q: with ":0" the bound port is only discoverable
	// from this line.
	fmt.Fprintf(stderr, "coordinator: http://%s/\n", bound)

	sweep := *expiry / 2
	if sweep < 50*time.Millisecond {
		sweep = 50 * time.Millisecond
	}
	stopSweep := coord.StartExpirySweep(sweep)
	defer stopSweep()

	if err := coord.Wait(ctx); err != nil {
		st := coord.Status()
		fmt.Fprintf(stderr, "interrupted: %d/%d configs journaled in %s.journal; rerun with the same flags to continue\n", st.Done, st.Total, *out)
		return err
	}
	data, failed, err := coord.Merge()
	if err != nil {
		return err
	}
	if data.Len() == 0 {
		return fmt.Errorf("every configuration failed; journal kept at %s.journal", *out)
	}
	if err := data.SaveFile(*out); err != nil {
		return err
	}
	if err := coord.Cleanup(); err != nil {
		return err
	}
	if rj != nil {
		err := rj.Close()
		rj = nil
		if err != nil {
			return err
		}
	}
	st := coord.Status()
	fmt.Fprintf(stdout, "wrote %s: %d rows x %d features (+%d app targets), %d failed configs, %s [%d workers, %d grants, %d expiries, %d steals]\n",
		*out, data.Len(), data.NumFeatures(), len(data.Apps), failed,
		time.Since(start).Round(time.Second),
		len(st.Workers), st.LeaseGrants, st.LeaseExpiries, st.LeaseSteals)
	if *linger > 0 {
		select {
		case <-ctx.Done():
		case <-time.After(*linger):
		}
	}
	return nil
}
