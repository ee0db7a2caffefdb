package main

import (
	"context"
	"testing"

	"armdse/internal/dataset"
	"armdse/internal/orchestrate"
	"armdse/internal/workload"
)

// collectTiny builds a small dataset for -data reuse tests.
func collectTiny(t *testing.T) (*dataset.Dataset, error) {
	t.Helper()
	suite := []workload.Workload{
		workload.NewSTREAM(workload.STREAMInputs{ArraySize: 512, Times: 1}),
		workload.NewMiniBUDE(workload.MiniBUDEInputs{Atoms: 8, Poses: 16, Iterations: 1, Repeats: 1}),
		workload.NewTeaLeaf(workload.TeaLeafInputs{NX: 8, NY: 8, Steps: 1, CGIters: 2, Dt: 0.004}),
		workload.NewMiniSweep(workload.MiniSweepInputs{NX: 2, NY: 2, NZ: 2, Angles: 4, Groups: 1, Sweeps: 1}),
	}
	res, err := orchestrate.Collect(context.Background(), orchestrate.Options{
		Seed: 13, Samples: 50, Suite: suite,
	})
	if err != nil {
		return nil, err
	}
	return res.Data, nil
}
