// Command dsequery answers design questions with a trained surrogate:
// predict the cycles of a specific configuration, compute the partial
// dependence of a parameter, or search the design space for the best
// configuration for one application — the downstream "what should we build?"
// workflow the paper's co-design framing motivates.
//
// Usage:
//
//	dsequery -data dataset.csv -app miniBUDE -predict cfg.json
//	dsequery -data dataset.csv -app STREAM -pdp L2-Size
//	dsequery -data dataset.csv -app miniBUDE -search
//	dsequery -data dataset.csv -app STREAM -pareto
//
// -search screens 20,000 random configurations, then hill-climbs from the
// best.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"armdse/internal/dataset"
	"armdse/internal/dtree"
	"armdse/internal/params"
	"armdse/internal/report"
	"armdse/internal/search"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dsequery:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dsequery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataPath = fs.String("data", "dataset.csv", "dataset CSV (from dsegen)")
		app      = fs.String("app", "STREAM", "application whose cycles to model")
		predict  = fs.String("predict", "", "JSON config file to predict cycles for")
		pdp      = fs.String("pdp", "", "feature name for a partial-dependence sweep")
		doSearch = fs.Bool("search", false, "search the design space for minimum predicted cycles")
		doPareto = fs.Bool("pareto", false, "print the dataset's Pareto front over (cycles, hardware-cost proxy)")
		seed     = fs.Int64("seed", 1, "seed for search sampling")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	data, err := dataset.LoadFile(*dataPath)
	if err != nil {
		return err
	}
	y, err := data.Target(*app)
	if err != nil {
		return err
	}
	tree, err := dtree.Train(data.X, y, dtree.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "surrogate for %s: %d rows, %d leaves, depth %d\n\n",
		*app, data.Len(), tree.NumLeaves(), tree.Depth())

	did := false
	if *predict != "" {
		did = true
		cfg, err := params.LoadConfig(*predict)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "predicted cycles for %s: %.0f\n", *predict, tree.Predict(cfg.Features()))
	}

	if *pdp != "" {
		did = true
		col := data.FeatureIndex(*pdp)
		if col < 0 {
			return fmt.Errorf("unknown feature %q (see dsepaper -only table2/table3)", *pdp)
		}
		var values []float64
		for _, p := range params.Space() {
			if p.Name == *pdp {
				values = p.Values()
			}
		}
		if len(values) > 12 {
			// Thin long value lists to a readable sweep.
			step := len(values) / 12
			var thin []float64
			for i := 0; i < len(values); i += step {
				thin = append(thin, values[i])
			}
			values = thin
		}
		pd, err := dtree.PartialDependence(tree, data.X, col, values)
		if err != nil {
			return err
		}
		tbl := report.Table{
			Title:   fmt.Sprintf("Partial dependence of %s cycles on %s", *app, *pdp),
			Columns: []string{*pdp, "Mean predicted cycles", "vs first"},
		}
		for i, v := range values {
			tbl.AddRow(report.I(v), report.F(pd[i], 0), report.F(pd[0]/pd[i], 2)+"x")
		}
		fmt.Fprintln(stdout, tbl.String())
	}

	if *doSearch {
		did = true
		res, err := search.Best(search.SurrogateObjective(tree), *seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "best predicted cycles: %.0f (screened %d, refined %d)\n",
			res.Score, res.Screened, res.Refined)
		tbl := report.Table{Title: "winning configuration", Columns: []string{"Parameter", "Value"}}
		names := params.FeatureNames()
		for i, v := range res.Config.Features() {
			tbl.AddRow(names[i], report.I(v))
		}
		fmt.Fprintln(stdout, tbl.String())
	}

	if *doPareto {
		did = true
		front, err := search.ParetoFromDataset(data, *app)
		if err != nil {
			return err
		}
		tbl := report.Table{
			Title:   fmt.Sprintf("Pareto front of %s cycles vs hardware-cost proxy (%d of %d rows)", *app, len(front), data.Len()),
			Columns: []string{"Row", "Cycles", "Cost proxy"},
		}
		for _, p := range front {
			tbl.AddRow(fmt.Sprint(p.Row), report.I(p.Cycles), report.F(p.Cost, 2))
		}
		fmt.Fprintln(stdout, tbl.String())
	}

	if !did {
		return fmt.Errorf("nothing to do: pass -predict, -pdp, -search or -pareto")
	}
	return nil
}
