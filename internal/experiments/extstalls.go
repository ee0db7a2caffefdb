package experiments

import (
	"context"
	"fmt"

	"armdse/internal/dtree"
	"armdse/internal/params"
	"armdse/internal/report"
	"armdse/internal/simeng"
)

// ExtStalls ranks the core's stall classes per mini-app: first on the
// ThunderX2 baseline, where the per-cycle attribution says directly where
// each application's time goes, then across the design space, where a
// decision-tree surrogate trained on each app's dominant stall-class column
// is permutation-ranked to show which parameters move that bottleneck —
// the stall-level complement of the paper's cycles-only Fig. 3.
func ExtStalls(ctx context.Context, opt Options) (Result, error) {
	opt = opt.withDefaults()

	// Table 1: baseline attribution. Rows are stall classes, columns apps,
	// cells the percentage of total cycles attributed to the class.
	classes := simeng.StallClassNames()
	baseline := report.Table{
		Title:   "ThunderX2 baseline: share of total cycles per stall class (columns sum to 100%)",
		Columns: []string{"Stall class"},
	}
	d, err := simulate(ctx, opt, []params.Config{params.ThunderX2()})
	if err != nil {
		return Result{}, err
	}
	shares := make([][]float64, len(classes))
	for c := range shares {
		shares[c] = make([]float64, len(opt.Suite))
	}
	dominant := make([]simeng.StallClass, len(opt.Suite))
	for wi, w := range opt.Suite {
		baseline.Columns = append(baseline.Columns, w.Name())
		cycles, err := d.Target(w.Name())
		if err != nil {
			return Result{}, err
		}
		stalls := make([]float64, len(classes))
		for c, name := range classes {
			col, err := d.StallTarget(w.Name(), name)
			if err != nil {
				return Result{}, err
			}
			stalls[c] = col[0]
			shares[c][wi] = 100 * stalls[c] / cycles[0] // Stats.StallPct
		}
		// The dominant *stall* excludes busy cycles: it is the class a
		// designer would attack first.
		best := simeng.StallFrontend
		for cl := best + 1; cl < simeng.NumStallClasses; cl++ {
			if stalls[cl] > stalls[best] {
				best = cl
			}
		}
		dominant[wi] = best
	}
	for c, name := range classes {
		row := []string{name}
		for wi := range opt.Suite {
			row = append(row, report.F(shares[c][wi], 1)+"%")
		}
		baseline.AddRow(row...)
	}

	res := Result{
		ID:     "extstalls",
		Title:  "Stall-class attribution and per-class surrogates (extension)",
		Tables: []report.Table{baseline},
		Notes: []string{
			"Every cycle is attributed to exactly one class by the commit-side stall bus, so each column sums to 100%.",
		},
	}

	// Table 2: per-class surrogates over the design space. Needs a
	// schema-v2 dataset; a preloaded v1 dataset (no stall columns) keeps
	// the baseline table and notes the omission.
	data, err := CollectData(ctx, opt)
	if err != nil {
		return Result{}, err
	}
	if data.SchemaVersion() < 2 {
		res.Notes = append(res.Notes,
			"Preloaded dataset has no stall columns (schema v1); per-class surrogate ranking skipped.")
		return res, nil
	}

	surro := report.Table{
		Title:   "Dominant stall class per app: surrogate accuracy and top design parameters moving it",
		Columns: []string{"Application", "Stall class", "Acc", "Top parameters (permutation importance)"},
	}
	train, test := data.Split(opt.Seed, trainFrac)
	if train.Len() == 0 || test.Len() == 0 {
		return Result{}, fmt.Errorf("experiments: dataset too small")
	}
	for wi, w := range opt.Suite {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		class := dominant[wi].String()
		y, err := train.StallTarget(w.Name(), class)
		if err != nil {
			return Result{}, err
		}
		tree, err := dtree.Train(train.X, y, opt.treeOptions())
		if err != nil {
			return Result{}, err
		}
		yTest, err := test.StallTarget(w.Name(), class)
		if err != nil {
			return Result{}, err
		}
		acc := heldOutAccuracyLabel(tree, test.X, yTest)
		imps, err := dtree.PermutationImportance(tree, train.X, y, train.FeatureNames, opt.importanceOptions())
		if err != nil {
			return Result{}, err
		}
		top := dtree.TopN(imps, 3)
		label := ""
		for i, im := range top {
			if i > 0 {
				label += ", "
			}
			label += fmt.Sprintf("%s (%.0f%%)", im.Feature, im.Pct)
		}
		surro.AddRow(w.Name(), class, acc, label)
	}
	res.Tables = append(res.Tables, surro)
	res.Notes = append(res.Notes,
		"Per-class targets come from the dataset's stall:<app>:<class> columns; the tree predicts cycles lost to the app's dominant class and its importances rank which parameters relieve that specific bottleneck.")
	return res, nil
}

// heldOutAccuracyLabel scores tree predictions against y; stall columns can
// be legitimately all-zero on a split (a class never observed), where mean
// accuracy is undefined.
func heldOutAccuracyLabel(tree *dtree.Tree, x [][]float64, y []float64) string {
	pred := tree.PredictAll(x)
	var absErr, mean float64
	for i := range y {
		d := pred[i] - y[i]
		if d < 0 {
			d = -d
		}
		absErr += d
		mean += y[i]
	}
	n := float64(len(y))
	if n == 0 || mean == 0 {
		return "n/a"
	}
	acc := 100 * (1 - (absErr/n)/(mean/n))
	return report.F(acc, 1) + "%"
}
