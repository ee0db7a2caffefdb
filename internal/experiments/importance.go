package experiments

import (
	"context"
	"fmt"

	"armdse/internal/dataset"
	"armdse/internal/dtree"
	"armdse/internal/params"
	"armdse/internal/report"
)

// importanceTopN is the paper's presentation size (Figs. 3-5 show the ten
// greatest importances).
const importanceTopN = 10

// importanceFor trains one tree per application on data and returns the
// top-N signed permutation importances, rendered one table per application.
func importanceFor(ctx context.Context, opt Options, data *dataset.Dataset, id, title string, notes []string) (Result, error) {
	res := Result{ID: id, Title: title, Notes: notes}
	for _, app := range data.Apps {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		y, err := data.Target(app)
		if err != nil {
			return Result{}, err
		}
		tree, err := dtree.Train(data.X, y, opt.treeOptions())
		if err != nil {
			return Result{}, fmt.Errorf("experiments: training %s: %w", app, err)
		}
		imps, err := dtree.PermutationImportance(tree, data.X, y, data.FeatureNames, opt.importanceOptions())
		if err != nil {
			return Result{}, err
		}
		top := dtree.TopN(imps, importanceTopN)
		tbl := report.Table{
			Title:   app,
			Columns: []string{"Rank", "Parameter", "Importance %"},
		}
		for i, im := range top {
			tbl.AddRow(fmt.Sprint(i+1), im.Feature, report.F(im.Pct, 2))
		}
		res.Tables = append(res.Tables, tbl)
	}
	return res, nil
}

// Fig3 reproduces the paper's Fig. 3: the ten greatest permutation feature
// importances per application over the full dataset (positive = increasing
// the parameter yields fewer cycles). Expected shape: Vector-Length
// dominates miniBUDE and ranks top for STREAM alongside L2 size and memory
// bandwidth parameters; TeaLeaf and MiniSweep are led by L1 latency/clock
// with negligible Vector-Length.
func Fig3(ctx context.Context, opt Options) (Result, error) {
	opt = opt.withDefaults()
	data, err := CollectData(ctx, opt)
	if err != nil {
		return Result{}, err
	}
	return importanceFor(ctx, opt, data, "fig3",
		"Ten greatest feature importance percentages per application",
		[]string{
			"Paper: vector length has the largest weighting overall (25.91%); memory-hierarchy parameters follow; ROB and register files next.",
		})
}

// figVLConstrained implements Figs. 4 and 5: the dataset is filtered to rows
// whose vector length equals vl before training, exposing what else matters
// once the dominant parameter is pinned.
func figVLConstrained(ctx context.Context, opt Options, id string, vl float64, notes []string) (Result, error) {
	opt = opt.withDefaults()
	data, err := CollectData(ctx, opt)
	if err != nil {
		return Result{}, err
	}
	col := data.FeatureIndex("Vector-Length")
	if col < 0 {
		col = params.FVectorLength
	}
	sub := data.FilterEqual(col, vl)
	if sub.Len() < 20 {
		return Result{}, fmt.Errorf("experiments: only %d rows with Vector-Length=%g; increase Samples", sub.Len(), vl)
	}
	title := fmt.Sprintf("Feature importances with vector length constrained to %g (%d rows)", vl, sub.Len())
	return importanceFor(ctx, opt, sub, id, title, notes)
}

// Fig4 reproduces the paper's Fig. 4 (vector length fixed at 128 bits).
// Expected: miniBUDE pressured by ROB and FP/SVE registers (many short
// vector instructions in flight), Cache-Line-Width prominent everywhere.
func Fig4(ctx context.Context, opt Options) (Result, error) {
	return figVLConstrained(ctx, opt, "fig4", 128, []string{
		"Paper: at VL=128 miniBUDE stresses the ROB and FP/SVE registers; cache-line width matters in all applications.",
	})
}

// Fig5 reproduces the paper's Fig. 5 (vector length fixed at 2048 bits).
// Expected: miniBUDE shifts toward L1 speed; ROB/FP-register pressure is
// relieved (fewer, wider instructions); cache-line width dampened for the
// vectorised codes because parallel line requests hide it.
func Fig5(ctx context.Context, opt Options) (Result, error) {
	return figVLConstrained(ctx, opt, "fig5", 2048, []string{
		"Paper: at VL=2048 miniBUDE becomes L1-speed constrained; ROB and FP/SVE register pressure relax; cache-line-width impact is dampened in vectorised codes.",
	})
}
