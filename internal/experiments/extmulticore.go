package experiments

import (
	"context"
	"fmt"

	"armdse/internal/params"
	"armdse/internal/report"
)

// ExtMulticore implements the paper's principal future-work direction — "the
// impacts of parallel execution" — using the paper's own §III argument that
// a single core "under saturation of the main memory controller reflects the
// same performance impact of memory-bound codes that one would see in real
// world multi-core problem sets": n cores sharing a memory controller are
// modelled as one core holding a 1/n share of the RAM channel, and aggregate
// throughput is n × its single-core rate. Expected shape: the compute-bound,
// cache-resident codes scale linearly with cores while STREAM saturates once
// the shared channel fills.
func ExtMulticore(ctx context.Context, opt Options) (Result, error) {
	opt = opt.withDefaults()

	// A capable node-class core on a 200 GB/s socket.
	base := params.ThunderX2()
	base.Core.VectorLength = 512
	base.Core.LoadBandwidth = 128
	base.Core.StoreBandwidth = 128
	base.Core.ROBSize = 256
	base.Core.FPSVERegisters = 256
	base.Core.MemRequestsPerCycle = 8
	base.Core.MemLoadsPerCycle = 4
	base.Core.MemStoresPerCycle = 2
	base.Mem.RAMBandwidthGBs = 200

	cores := []int{1, 2, 4, 8, 16, 32}
	tbl := report.Table{
		Title:   "Aggregate throughput vs cores (normalised to 1 core; saturated shared memory controller)",
		Columns: []string{"Cores"},
	}
	for _, w := range opt.Suite {
		tbl.Columns = append(tbl.Columns, w.Name())
	}

	// single-core cycles at a 1/n channel share, per core count.
	cfgs := make([]params.Config, len(cores))
	for ci, n := range cores {
		cfgs[ci] = base
		cfgs[ci].Mem.RAMBandwidthGBs = base.Mem.RAMBandwidthGBs / float64(n)
	}
	d, err := simulate(ctx, opt, cfgs)
	if err != nil {
		return Result{}, err
	}
	speedups := make([][]float64, len(opt.Suite))
	for wi, w := range opt.Suite {
		y, err := d.Target(w.Name())
		if err != nil {
			return Result{}, err
		}
		speedups[wi] = make([]float64, len(cores))
		var oneCore float64
		for ci, n := range cores {
			perCoreRate := 1 / y[ci]
			aggregate := float64(n) * perCoreRate
			if ci == 0 {
				oneCore = aggregate
			}
			speedups[wi][ci] = aggregate / oneCore
		}
	}
	for ci, n := range cores {
		row := []string{fmt.Sprint(n)}
		for wi := range opt.Suite {
			row = append(row, report.F(speedups[wi][ci], 2)+"x")
		}
		tbl.AddRow(row...)
	}
	return Result{
		ID:     "extmulticore",
		Title:  "Multi-core scaling under a shared memory controller (extension)",
		Tables: []report.Table{tbl},
		Notes: []string{
			"Model: n cores sharing a saturated controller = one core with a 1/n RAM-channel share, aggregate = n x its rate (the paper's own §III single-core argument, run in reverse).",
			"Expected: compute-bound cache-resident codes scale ~linearly; STREAM flattens at the socket's bandwidth ceiling — 'it always comes back to memory'.",
		},
	}, nil
}
