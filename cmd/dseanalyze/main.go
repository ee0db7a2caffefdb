// Command dseanalyze trains the per-application decision-tree surrogates
// from a collected dataset and reports model accuracy and permutation
// feature importance — the paper's analysis.py.
//
// Usage:
//
//	dseanalyze -data dataset.csv [-seed 1] [-top 10] [-workers 0]
//
// It follows the paper's protocol: accuracy on a held-out 20% of the rows,
// importance over 10 shuffles of each feature.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"armdse"
	"armdse/internal/report"
	"armdse/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dseanalyze:", err)
		os.Exit(1)
	}
}

// The paper's analysis protocol.
const (
	trainFrac = 0.8 // share of rows the accuracy surrogates train on
	repeats   = 10  // permutation-importance shuffles per feature
)

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dseanalyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataPath = fs.String("data", "dataset.csv", "input dataset CSV (from dsegen)")
		seed     = fs.Int64("seed", 1, "split/shuffle seed")
		top      = fs.Int("top", 10, "importances to print per application")
		workers  = fs.Int("workers", 0, "training/importance workers (0 = all CPUs; never changes the models)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateFlags(*top, *workers); err != nil {
		return err
	}

	data, err := armdse.LoadDataset(*dataPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "dataset: %d rows x %d features, apps %v\n\n", data.Len(), data.NumFeatures(), data.Apps)

	// Accuracy on a held-out split (the paper's Fig. 2 protocol).
	train, test := data.Split(*seed, trainFrac)
	if train.Len() == 0 || test.Len() == 0 {
		return fmt.Errorf("dataset of %d rows too small for a %.0f/%.0f split",
			data.Len(), trainFrac*100, (1-trainFrac)*100)
	}
	accTbl := report.Table{
		Title:   fmt.Sprintf("Held-out accuracy (train %d / test %d)", train.Len(), test.Len()),
		Columns: []string{"Application", "<=1%", "<=2%", "<=5%", "<=10%", "<=25%", "Mean accuracy", "Leaves", "Depth"},
	}
	treeOpt := armdse.TreeOptions{Workers: *workers}
	var accSum float64
	for _, app := range data.Apps {
		tree, err := armdse.TrainSurrogateOpt(train, app, treeOpt)
		if err != nil {
			return err
		}
		yTest, err := test.Target(app)
		if err != nil {
			return err
		}
		pred := tree.PredictAll(test.X)
		row := []string{app}
		for _, p := range []float64{1, 2, 5, 10, 25} {
			v, err := stats.WithinPct(pred, yTest, p)
			if err != nil {
				return err
			}
			row = append(row, report.F(v, 1))
		}
		acc, err := stats.MeanAccuracyPct(pred, yTest)
		if err != nil {
			return err
		}
		accSum += acc
		row = append(row, report.F(acc, 2)+"%",
			fmt.Sprint(tree.NumLeaves()), fmt.Sprint(tree.Depth()))
		accTbl.AddRow(row...)
	}
	fmt.Fprintln(stdout, accTbl.String())
	fmt.Fprintf(stdout, "mean accuracy across applications: %.2f%%\n\n", accSum/float64(len(data.Apps)))

	// Importance on the full dataset (the paper's Fig. 3 protocol).
	for _, app := range data.Apps {
		tree, err := armdse.TrainSurrogateOpt(data, app, treeOpt)
		if err != nil {
			return err
		}
		imps, err := armdse.FeatureImportanceOpt(tree, data, app, armdse.ImportanceOptions{
			Repeats: repeats, Seed: *seed, Workers: *workers,
		})
		if err != nil {
			return err
		}
		sel := armdse.TopImportances(imps, *top)
		labels := make([]string, len(sel))
		values := make([]float64, len(sel))
		for i, im := range sel {
			labels[i] = im.Feature
			values[i] = im.Pct
		}
		fmt.Fprintln(stdout, report.BarChart(app+" — permutation feature importance % (positive = fewer cycles)", labels, values, 40))
	}
	return nil
}

// validateFlags rejects values the analysis would otherwise coerce or fail
// on late: it runs before the dataset loads, so a typo costs no training.
func validateFlags(top, workers int) error {
	switch {
	case top < 0:
		return fmt.Errorf("-top %d < 0", top)
	case workers < 0:
		return fmt.Errorf("-workers %d < 0 (0 selects all CPUs)", workers)
	}
	return nil
}
