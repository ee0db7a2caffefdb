package experiments

import (
	"context"

	"armdse/internal/params"
	"armdse/internal/report"
	"armdse/internal/sstmem"
	"armdse/internal/stats"
)

// table1Configs returns Table I's two baselines, simulation then hardware:
// the ThunderX2 point with the Basic (SST-like) memory model, and the same
// core with the High-fidelity model standing in for the physical node (finite
// banks, a stride prefetcher, a DRAM row-buffer model). Only Mem.Fidelity
// differs, so the gap between them is the memory-model simplification the
// paper blames for its discrepancies — the mechanism of the error rather
// than its exact magnitudes (see DESIGN.md).
func table1Configs() []params.Config {
	hw := params.ThunderX2()
	hw.Mem.Fidelity = sstmem.High
	return []params.Config{params.ThunderX2(), hw}
}

// Table1 reproduces the paper's Table I: single-core cycles on the ThunderX2
// baseline, simulated (SST-like basic memory model) versus "hardware" (the
// high-fidelity proxy standing in for the physical node — see
// table1Configs), with the percentage difference. The paper reports 5.95%
// (STREAM), 13.05% (miniBUDE), 36.69% (TeaLeaf) and 37.05% (MiniSweep); the
// expected shape is same-magnitude cycle counts with an
// application-dependent gap caused by the simplified memory backend.
func Table1(ctx context.Context, opt Options) (Result, error) {
	opt = opt.withDefaults()
	tbl := report.Table{
		Title:   "Simulated vs hardware-proxy cycles, ThunderX2 baseline",
		Columns: []string{"Application", "Simulated Cycles", "Hardware Cycles", "% Difference"},
	}
	d, err := simulate(ctx, opt, table1Configs())
	if err != nil {
		return Result{}, err
	}
	for _, w := range opt.Suite {
		y, err := d.Target(w.Name())
		if err != nil {
			return Result{}, err
		}
		tbl.AddRow(
			w.Name(),
			report.I(y[0]),
			report.I(y[1]),
			report.F(stats.PctDifference(y[0], y[1]), 2)+"%",
		)
	}
	return Result{
		ID:     "table1",
		Title:  "Simulated single-core cycles compared to hardware cycles (ThunderX2)",
		Tables: []report.Table{tbl},
		Notes: []string{
			"Substitution: physical ThunderX2 runs are replaced by the same core model with a high-fidelity memory backend (finite banks, stride prefetch, DRAM rows) — the features the paper says its SST setup abstracts away and blames for its 6-37% discrepancies.",
		},
	}, nil
}
