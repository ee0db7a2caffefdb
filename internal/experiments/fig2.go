package experiments

import (
	"context"
	"fmt"

	"armdse/internal/dtree"
	"armdse/internal/report"
	"armdse/internal/stats"
)

// Fig2 reproduces the paper's Fig. 2 and headline accuracy number: each
// application's decision-tree surrogate is trained on a randomised 80% split
// and evaluated on the held-out 20%, reporting the percentage of cycle
// predictions within each confidence interval of the simulated truth, plus
// the mean accuracy (paper: 93.38% across applications). Expected shape:
// most predictions within a few percent, nearly all within 25%.
func Fig2(ctx context.Context, opt Options) (Result, error) {
	opt = opt.withDefaults()
	data, err := CollectData(ctx, opt)
	if err != nil {
		return Result{}, err
	}
	train, test := data.Split(opt.Seed, trainFrac)
	if train.Len() == 0 || test.Len() == 0 {
		return Result{}, fmt.Errorf("experiments: dataset of %d rows too small to split", data.Len())
	}

	cols := []string{"Application"}
	for _, p := range stats.Fig2Intervals {
		cols = append(cols, fmt.Sprintf("<=%g%%", p))
	}
	cols = append(cols, "Mean accuracy")
	tbl := report.Table{
		Title:   fmt.Sprintf("Predictions within confidence interval of truth (train %d / test %d rows)", train.Len(), test.Len()),
		Columns: cols,
	}

	var accSum float64
	for _, app := range data.Apps {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		yTrain, err := train.Target(app)
		if err != nil {
			return Result{}, err
		}
		tree, err := dtree.Train(train.X, yTrain, opt.treeOptions())
		if err != nil {
			return Result{}, err
		}
		yTest, err := test.Target(app)
		if err != nil {
			return Result{}, err
		}
		pred := tree.PredictAll(test.X)
		curve, err := stats.ConfidenceCurve(pred, yTest, stats.Fig2Intervals)
		if err != nil {
			return Result{}, err
		}
		acc, err := stats.MeanAccuracyPct(pred, yTest)
		if err != nil {
			return Result{}, err
		}
		accSum += acc
		row := []string{app}
		for _, v := range curve {
			row = append(row, report.F(v, 1))
		}
		row = append(row, report.F(acc, 2)+"%")
		tbl.AddRow(row...)
	}
	mean := accSum / float64(len(data.Apps))
	meanRow := make([]string, len(cols))
	meanRow[0] = "MEAN"
	meanRow[len(cols)-1] = report.F(mean, 2) + "%"
	tbl.AddRow(meanRow...)

	return Result{
		ID:     "fig2",
		Title:  "Percentage of cycle predictions within confidence intervals of the simulated value",
		Tables: []report.Table{tbl},
		Notes: []string{
			"Paper: majority of predictions within 2% for three applications, nearly all within 25%; mean accuracy 93.38%.",
		},
	}, nil
}
