package experiments

import (
	"context"
	"fmt"

	"armdse/internal/dtree"
	"armdse/internal/isa"
	"armdse/internal/orchestrate"
	"armdse/internal/params"
	"armdse/internal/report"
	"armdse/internal/stats"
)

// Extensions returns the experiments beyond the paper's evaluation: the
// paper's stated future work (execution-unit design) and ablations of design
// choices the paper asserts without measurement (per-app surrogates, basic
// prefetching).
func Extensions() []Runner {
	return []Runner{
		{ID: "extports", Title: "Execution-port sweep (paper future work: sizing the backend)", Run: ExtPorts},
		{ID: "extunified", Title: "Unified vs per-application surrogate (paper §V-C design choice)", Run: ExtUnified},
		{ID: "extprefetch", Title: "Prefetcher ablation (SST basic prefetching)", Run: ExtPrefetch},
		{ID: "extforest", Title: "Random-forest surrogate (paper future work: richer models)", Run: ExtForest},
		{ID: "extmulticore", Title: "Multi-core scaling under a shared memory controller (paper future work)", Run: ExtMulticore},
		{ID: "extstalls", Title: "Stall-class ranking and per-class surrogates (top-down attribution)", Run: ExtStalls},
	}
}

// AllWithExtensions returns the paper experiments followed by extensions.
func AllWithExtensions() []Runner { return append(All(), Extensions()...) }

// portLayout builds a port set with the given counts of load/store, vector,
// predicate and mixed ports.
func portLayout(ls, vec, pred, mix int) []isa.Port {
	var ports []isa.Port
	lsSet := isa.Groups(isa.Load, isa.Store)
	vecSet := isa.Groups(isa.SVEAdd, isa.SVEMul, isa.SVEFMA, isa.SVEDiv)
	mixSet := isa.Groups(isa.IntALU, isa.IntMul, isa.IntDiv, isa.FPAdd, isa.FPMul, isa.FPFMA, isa.FPDiv, isa.Branch)
	for i := 0; i < ls; i++ {
		ports = append(ports, isa.Port{Name: fmt.Sprintf("LS%d", i), Accept: lsSet})
	}
	for i := 0; i < vec; i++ {
		ports = append(ports, isa.Port{Name: fmt.Sprintf("V%d", i), Accept: vecSet})
	}
	for i := 0; i < pred; i++ {
		ports = append(ports, isa.Port{Name: fmt.Sprintf("P%d", i), Accept: isa.Groups(isa.PredOp)})
	}
	for i := 0; i < mix; i++ {
		ports = append(ports, isa.Port{Name: fmt.Sprintf("M%d", i), Accept: mixSet})
	}
	return ports
}

// ExtPorts implements the paper's future-work question — "how large the CPU
// backend needs to be to resolve compute-bound bottlenecks" — by sweeping
// the number of SVE and mixed scalar ports on a generously provisioned core.
// Expected shape: the compute-bound, vectorised miniBUDE scales with SVE
// ports; the scalar codes scale with mixed ports; STREAM (memory-bound)
// barely moves with either.
func ExtPorts(ctx context.Context, opt Options) (Result, error) {
	opt = opt.withDefaults()

	base := params.ThunderX2()
	base.Core.VectorLength = 512
	base.Core.FrontendWidth = 16
	base.Core.CommitWidth = 16
	base.Core.ROBSize = 256
	base.Core.FPSVERegisters = 320
	base.Core.GPRegisters = 320
	base.Core.CondRegisters = 128
	base.Core.LoadBandwidth = 256
	base.Core.StoreBandwidth = 256
	base.Core.MemRequestsPerCycle = 8
	base.Core.MemLoadsPerCycle = 8
	base.Core.MemStoresPerCycle = 4
	base.Mem.RAMBandwidthGBs = 200

	sweep := []struct {
		label    string
		vec, mix int
	}{
		{"1V/1M", 1, 1},
		{"1V/3M", 1, 3},
		{"2V/3M", 2, 3}, // the paper's fixed layout
		{"4V/3M", 4, 3},
		{"4V/6M", 4, 6},
		{"8V/8M", 8, 8},
	}

	tbl := report.Table{
		Title:   "Cycles normalised to the paper's fixed layout (2 SVE + 3 mixed ports); lower is faster",
		Columns: []string{"Ports"},
	}
	for _, w := range opt.Suite {
		tbl.Columns = append(tbl.Columns, w.Name())
	}

	cfgs := make([]params.Config, len(sweep))
	paperLayout := 0
	for si, sc := range sweep {
		cfgs[si] = base
		cfgs[si].Core.Ports = portLayout(3, sc.vec, 1, sc.mix)
		if sc.label == "2V/3M" {
			paperLayout = si
		}
	}
	d, err := simulate(ctx, opt, orchestrate.BackendSST, cfgs)
	if err != nil {
		return Result{}, err
	}
	cycles := make([][]float64, len(opt.Suite))
	for wi, w := range opt.Suite {
		if cycles[wi], err = d.Target(w.Name()); err != nil {
			return Result{}, err
		}
	}
	for si, sc := range sweep {
		row := []string{sc.label}
		for wi := range opt.Suite {
			row = append(row, report.F(cycles[wi][si]/cycles[wi][paperLayout], 2))
		}
		tbl.AddRow(row...)
	}
	return Result{
		ID:     "extports",
		Title:  "Execution-port design sweep (extension)",
		Tables: []report.Table{tbl},
		Notes: []string{
			"Extends the fixed §V-A backend: vector ports matter for the vectorised compute-bound code, mixed scalar ports for the scalar codes, and neither rescues the memory-bound one.",
		},
	}, nil
}

// ExtUnified tests the paper's §V-C design argument that a unified tree
// "would likely branch based on a given application ... without necessarily
// improving learned trends": it trains one tree per application versus a
// single tree over the pooled rows with the application identity as an
// extra feature, and compares held-out accuracy and model size.
func ExtUnified(ctx context.Context, opt Options) (Result, error) {
	opt = opt.withDefaults()
	data, err := CollectData(ctx, opt)
	if err != nil {
		return Result{}, err
	}
	train, test := data.Split(opt.Seed, opt.TrainFrac)
	if train.Len() == 0 || test.Len() == 0 {
		return Result{}, fmt.Errorf("experiments: dataset too small")
	}

	tbl := report.Table{
		Title:   "Held-out mean accuracy: per-application trees vs one unified tree (+app-id feature)",
		Columns: []string{"Application", "Per-app acc", "Unified acc", "Per-app leaves", "Unified leaves"},
	}

	// Unified training set: rows replicated per app with an app-id column.
	var ux [][]float64
	var uy []float64
	appID := func(i int) float64 { return float64(i) }
	for ai, app := range train.Apps {
		y, err := train.Target(app)
		if err != nil {
			return Result{}, err
		}
		for r, row := range train.X {
			urow := make([]float64, len(row)+1)
			copy(urow, row)
			urow[len(row)] = appID(ai)
			ux = append(ux, urow)
			uy = append(uy, y[r])
		}
	}
	unified, err := dtree.Train(ux, uy, opt.treeOptions())
	if err != nil {
		return Result{}, err
	}

	for ai, app := range data.Apps {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		yTrain, err := train.Target(app)
		if err != nil {
			return Result{}, err
		}
		per, err := dtree.Train(train.X, yTrain, opt.treeOptions())
		if err != nil {
			return Result{}, err
		}
		yTest, err := test.Target(app)
		if err != nil {
			return Result{}, err
		}
		perPred := per.PredictAll(test.X)
		perAcc, err := stats.MeanAccuracyPct(perPred, yTest)
		if err != nil {
			return Result{}, err
		}
		uniPred := make([]float64, len(test.X))
		urow := make([]float64, data.NumFeatures()+1)
		for r, row := range test.X {
			copy(urow, row)
			urow[len(row)] = appID(ai)
			uniPred[r] = unified.Predict(urow)
		}
		uniAcc, err := stats.MeanAccuracyPct(uniPred, yTest)
		if err != nil {
			return Result{}, err
		}
		tbl.AddRow(app,
			report.F(perAcc, 2)+"%", report.F(uniAcc, 2)+"%",
			fmt.Sprint(per.NumLeaves()), fmt.Sprint(unified.NumLeaves()))
	}
	return Result{
		ID:     "extunified",
		Title:  "Per-application vs unified surrogate (ablation)",
		Tables: []report.Table{tbl},
		Notes: []string{
			"Paper §V-C asserts the per-app design without measurement; this ablation quantifies it. The unified tree is one model over all apps with an app-id input, so its leaf count is compared against a single per-app tree.",
		},
	}, nil
}

// ExtPrefetch ablates the memory backend's basic prefetcher on the ThunderX2
// baseline. Expected shape: the streaming, memory-bound codes lose the most;
// the L1-resident compute-bound code barely changes — evidence for why the
// paper's SST configuration enables basic prefetching.
func ExtPrefetch(ctx context.Context, opt Options) (Result, error) {
	opt = opt.withDefaults()
	tbl := report.Table{
		Title:   "ThunderX2 baseline cycles with and without the basic prefetcher",
		Columns: []string{"Application", "Prefetch on", "Prefetch off", "Slowdown"},
	}
	off := params.ThunderX2()
	off.Mem.DisablePrefetch = true
	d, err := simulate(ctx, opt, orchestrate.BackendSST, []params.Config{params.ThunderX2(), off})
	if err != nil {
		return Result{}, err
	}
	for _, w := range opt.Suite {
		y, err := d.Target(w.Name())
		if err != nil {
			return Result{}, err
		}
		tbl.AddRow(w.Name(), report.I(y[0]), report.I(y[1]), report.F(y[1]/y[0], 2)+"x")
	}
	return Result{
		ID:     "extprefetch",
		Title:  "Basic-prefetcher ablation (extension)",
		Tables: []report.Table{tbl},
		Notes: []string{
			"The paper's SST backend uses 'basic prefetching algorithms'; this ablation shows what the study's memory-bound results owe to it.",
		},
	}, nil
}
