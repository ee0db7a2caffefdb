package experiments

import (
	"context"
	"fmt"

	"armdse/internal/dtree"
	"armdse/internal/report"
	"armdse/internal/stats"
)

// ExtForest implements the paper's concluding future-work proposal of "a
// more complex surrogate model": it compares the paper's single decision
// tree against a bagged random forest on held-out accuracy per application.
// Expected shape: the forest wins on mean accuracy (variance reduction on
// the noisy cycle targets), at the cost of the single tree's one-path
// interpretability that the paper's importance analysis relies on.
func ExtForest(ctx context.Context, opt Options) (Result, error) {
	opt = opt.withDefaults()
	data, err := CollectData(ctx, opt)
	if err != nil {
		return Result{}, err
	}
	train, test := data.Split(opt.Seed, trainFrac)
	if train.Len() == 0 || test.Len() == 0 {
		return Result{}, fmt.Errorf("experiments: dataset too small")
	}

	tbl := report.Table{
		Title:   fmt.Sprintf("Held-out accuracy: decision tree vs 30-tree random forest (train %d / test %d)", train.Len(), test.Len()),
		Columns: []string{"Application", "Tree acc", "Forest acc", "Tree <=10%", "Forest <=10%"},
	}
	for _, app := range data.Apps {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		yTrain, err := train.Target(app)
		if err != nil {
			return Result{}, err
		}
		yTest, err := test.Target(app)
		if err != nil {
			return Result{}, err
		}
		tree, err := dtree.Train(train.X, yTrain, opt.treeOptions())
		if err != nil {
			return Result{}, err
		}
		forest, err := dtree.TrainForest(train.X, yTrain, dtree.ForestOptions{
			Trees: 30, Seed: opt.Seed, Workers: opt.Workers,
		})
		if err != nil {
			return Result{}, err
		}
		tPred := tree.PredictAll(test.X)
		fPred := forest.PredictAll(test.X)
		tAcc, err := stats.MeanAccuracyPct(tPred, yTest)
		if err != nil {
			return Result{}, err
		}
		fAcc, err := stats.MeanAccuracyPct(fPred, yTest)
		if err != nil {
			return Result{}, err
		}
		t10, err := stats.WithinPct(tPred, yTest, 10)
		if err != nil {
			return Result{}, err
		}
		f10, err := stats.WithinPct(fPred, yTest, 10)
		if err != nil {
			return Result{}, err
		}
		tbl.AddRow(app,
			report.F(tAcc, 2)+"%", report.F(fAcc, 2)+"%",
			report.F(t10, 1)+"%", report.F(f10, 1)+"%")
	}
	return Result{
		ID:     "extforest",
		Title:  "Decision tree vs random forest surrogate (paper future work)",
		Tables: []report.Table{tbl},
		Notes: []string{
			"The paper proposes 'a more complex surrogate model' as future research; this compares its single CART against a bagged random forest on the same split.",
		},
	}, nil
}
