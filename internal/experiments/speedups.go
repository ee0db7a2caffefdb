package experiments

import (
	"context"
	"fmt"

	"armdse/internal/params"
	"armdse/internal/report"
	"armdse/internal/stats"
	"armdse/internal/workload"
)

// SweepConfigs is the number of random base configurations each speedup
// sweep averages over. The paper slices its 180k-row dataset instead; at
// laptop scale the mean over unpaired random rows is hopelessly noisy, so
// this repo sweeps the parameter across the *same* base configurations
// (paired comparison), which estimates the same mean-speedup curve with
// orders of magnitude less variance. DESIGN.md records the substitution.
const SweepConfigs = 12

// Fig6VLs, Fig7ROBs and Fig8FPRegs are the swept levels, anchored at each
// parameter's minimum (the paper's speedup baseline) and including the
// paper's called-out saturation points (ROB 152, FP/SVE registers 144).
var (
	Fig6VLs    = []int{128, 256, 512, 1024, 2048}
	Fig7ROBs   = []int{8, 32, 64, 96, 128, 152, 256, 512}
	Fig8FPRegs = []int{40, 64, 96, 128, 144, 192, 320, 512}
)

// runSweep simulates the suite on every (base config × level) combination,
// where override(cfg, level) applies the swept value, and returns mean
// cycles indexed [app][level].
func runSweep(ctx context.Context, opt Options, levels []int,
	override func(*params.Config, int)) ([][]float64, error) {
	opt = opt.withDefaults()
	bases := params.SampleN(opt.Seed+1000, sweepCount(opt))
	cfgs := make([]params.Config, 0, len(bases)*len(levels))
	for _, base := range bases {
		for _, lvl := range levels {
			cfg := base
			override(&cfg, lvl)
			if err := cfg.Validate(); err != nil {
				return nil, fmt.Errorf("experiments: sweep override produced invalid config: %w", err)
			}
			cfgs = append(cfgs, cfg)
		}
	}
	d, err := simulate(ctx, opt, cfgs)
	if err != nil {
		return nil, err
	}

	means := make([][]float64, len(opt.Suite))
	cycles := make([]float64, len(bases))
	for a, w := range opt.Suite {
		y, err := d.Target(w.Name())
		if err != nil {
			return nil, err
		}
		means[a] = make([]float64, len(levels))
		for l := range levels {
			for c := range bases {
				cycles[c] = y[c*len(levels)+l]
			}
			means[a][l] = stats.Mean(cycles)
		}
	}
	return means, nil
}

// sweepCount returns the base-config count, scaled down with tiny Samples
// settings so benchmark runs stay cheap.
func sweepCount(opt Options) int {
	n := SweepConfigs
	if opt.Samples > 0 && opt.Samples < 100 {
		n = 4
	}
	return n
}

// speedupResult renders a levels × apps speedup grid.
func speedupResult(id, title, xLabel string, levels []int, suite []workload.Workload,
	means [][]float64, notes []string) (Result, error) {
	tbl := report.Table{Title: title, Columns: []string{xLabel}}
	for _, w := range suite {
		tbl.Columns = append(tbl.Columns, w.Name())
	}
	curves := make([][]float64, len(suite))
	for a := range means {
		sp, err := stats.SpeedupCurve(means[a])
		if err != nil {
			return Result{}, err
		}
		curves[a] = sp
	}
	for li, lvl := range levels {
		row := []string{fmt.Sprint(lvl)}
		for a := range curves {
			row = append(row, report.F(curves[a][li], 2)+"x")
		}
		tbl.AddRow(row...)
	}
	return Result{ID: id, Title: title, Tables: []report.Table{tbl}, Notes: notes}, nil
}

// Fig6 reproduces the paper's Fig. 6: mean speedup of each vector length
// relative to VL=128. Matching the paper's fairness filter ("only results
// with a Load-Bandwidth greater than 256 are presented... the minimum a
// result with vector length 2048 has"), every swept configuration is given
// load/store bandwidth of at least 256 bytes/cycle, held constant across
// levels. Expected shape: 7-9x at VL=2048 for STREAM and miniBUDE,
// negligible for TeaLeaf/MiniSweep.
func Fig6(ctx context.Context, opt Options) (Result, error) {
	opt = opt.withDefaults()
	means, err := runSweep(ctx, opt, Fig6VLs, func(cfg *params.Config, vl int) {
		cfg.Core.VectorLength = vl
		if cfg.Core.LoadBandwidth < 256 {
			cfg.Core.LoadBandwidth = 256
		}
		if cfg.Core.StoreBandwidth < 256 {
			cfg.Core.StoreBandwidth = 256
		}
	})
	if err != nil {
		return Result{}, err
	}
	return speedupResult("fig6",
		fmt.Sprintf("Mean speedup vs vector length (relative to 128; %d paired configs; Load/Store-Bandwidth >= 256)", sweepCount(opt)),
		"Vector length", Fig6VLs, opt.Suite, means,
		[]string{
			"Paper: 7-9x speedup at a 16x vector-length increase for STREAM and miniBUDE (larger for STREAM); negligible for the unvectorised codes.",
			"Substitution: paired sweep over common base configurations instead of slicing the random dataset (variance reduction at laptop-scale sample counts).",
		})
}

// Fig7 reproduces the paper's Fig. 7: mean speedup versus ROB size relative
// to the minimum of 8. Expected shape: steep gains saturating around 152,
// largest in memory-bound STREAM.
func Fig7(ctx context.Context, opt Options) (Result, error) {
	opt = opt.withDefaults()
	means, err := runSweep(ctx, opt, Fig7ROBs, func(cfg *params.Config, rob int) {
		cfg.Core.ROBSize = rob
	})
	if err != nil {
		return Result{}, err
	}
	return speedupResult("fig7",
		fmt.Sprintf("Mean speedup vs ROB size (relative to 8; %d paired configs)", sweepCount(opt)),
		"ROB size", Fig7ROBs, opt.Suite, means,
		[]string{
			"Paper: speedup saturates around ROB=152; largest impact in STREAM where long-latency loads hold instructions uncommitted.",
			"Substitution: paired sweep over common base configurations instead of slicing the random dataset.",
		})
}

// Fig8 reproduces the paper's Fig. 8: mean speedup versus the number of
// FP/SVE physical registers relative to the minimum of 40 (the paper's
// minimum viable 38 rounded to the sampling grid). Expected shape:
// saturation once the register file covers the in-flight window (~144).
func Fig8(ctx context.Context, opt Options) (Result, error) {
	opt = opt.withDefaults()
	means, err := runSweep(ctx, opt, Fig8FPRegs, func(cfg *params.Config, fp int) {
		cfg.Core.FPSVERegisters = fp
	})
	if err != nil {
		return Result{}, err
	}
	return speedupResult("fig8",
		fmt.Sprintf("Mean speedup vs FP/SVE registers (relative to 40; %d paired configs)", sweepCount(opt)),
		"FP/SVE registers", Fig8FPRegs, opt.Suite, means,
		[]string{
			"Paper: counts below 144 bottleneck register rename; beyond that the bottleneck shifts to the backend.",
			"Substitution: paired sweep over common base configurations instead of slicing the random dataset.",
		})
}
