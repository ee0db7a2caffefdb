package experiments

import (
	"context"

	"armdse/internal/hwproxy"
	"armdse/internal/orchestrate"
	"armdse/internal/params"
	"armdse/internal/report"
	"armdse/internal/stats"
)

// Table1 reproduces the paper's Table I: single-core cycles on the ThunderX2
// baseline, simulated (SST-like basic memory model) versus "hardware" (the
// high-fidelity proxy standing in for the physical node — see hwproxy), with
// the percentage difference. The paper reports 5.95% (STREAM), 13.05%
// (miniBUDE), 36.69% (TeaLeaf) and 37.05% (MiniSweep); the expected shape is
// same-magnitude cycle counts with an application-dependent gap caused by
// the simplified memory backend.
func Table1(ctx context.Context, opt Options) (Result, error) {
	opt = opt.withDefaults()
	tbl := report.Table{
		Title:   "Simulated vs hardware-proxy cycles, ThunderX2 baseline",
		Columns: []string{"Application", "Simulated Cycles", "Hardware Cycles", "% Difference"},
	}
	sim, err := simulate(ctx, opt, orchestrate.BackendSST, []params.Config{hwproxy.BaselineSim()})
	if err != nil {
		return Result{}, err
	}
	hw, err := simulate(ctx, opt, orchestrate.BackendProxy, []params.Config{hwproxy.BaselineHW()})
	if err != nil {
		return Result{}, err
	}
	for _, w := range opt.Suite {
		s, err := sim.Target(w.Name())
		if err != nil {
			return Result{}, err
		}
		h, err := hw.Target(w.Name())
		if err != nil {
			return Result{}, err
		}
		tbl.AddRow(
			w.Name(),
			report.I(s[0]),
			report.I(h[0]),
			report.F(stats.PctDifference(s[0], h[0]), 2)+"%",
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
