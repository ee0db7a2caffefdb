package armdse_test

import (
	"context"
	"fmt"

	"armdse"
)

// ExampleSimulate runs the scaled STREAM benchmark on the ThunderX2
// baseline. Retired-instruction counts are a pure function of the workload
// and vector length, so they are stable across simulator changes.
func ExampleSimulate() {
	w := armdse.NewSTREAM(armdse.STREAMInputs{ArraySize: 1024, Times: 1})
	st, err := armdse.Simulate(armdse.ThunderX2(), w)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("retired:", st.Retired)
	fmt.Printf("vectorised: %.0f%%\n", st.VectorisationPct())
	// Output:
	// retired: 12800
	// vectorised: 52%
}

// ExampleThunderX2 shows the fixed validation baseline.
func ExampleThunderX2() {
	cfg := armdse.ThunderX2()
	fmt.Println("vector length:", cfg.Core.VectorLength)
	fmt.Println("ROB size:", cfg.Core.ROBSize)
	fmt.Println("L1D:", cfg.Mem.L1DSize/1024, "KiB")
	// Output:
	// vector length: 128
	// ROB size: 180
	// L1D: 32 KiB
}

// ExampleSpace lists the design space dimensions.
func ExampleSpace() {
	sp := armdse.Space()
	fmt.Println("parameters:", len(sp))
	fmt.Println("first:", sp[0].Name)
	fmt.Println("last:", sp[len(sp)-1].Name)
	// Output:
	// parameters: 30
	// first: Vector-Length
	// last: RAM-Bandwidth
}

// ExampleCollect runs the sample→simulate→collect pipeline on a tiny
// workload suite and reports the dataset shape.
func ExampleCollect() {
	suite := []armdse.Workload{
		armdse.NewSTREAM(armdse.STREAMInputs{ArraySize: 256, Times: 1}),
	}
	res, err := armdse.Collect(context.Background(), armdse.CollectOptions{
		Seed:    1,
		Samples: 5,
		Suite:   suite,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%d rows x %d features, apps %v\n",
		res.Data.Len(), res.Data.NumFeatures(), res.Data.Apps)
	// Output:
	// 5 rows x 30 features, apps [STREAM]
}

// ExampleNewCustomWorkload declares a DAXPY kernel (y = a*x + y over 16k
// elements, vectorised) and runs it on the ThunderX2 baseline like any
// built-in application; it can equally be collected, surrogate-trained and
// ranked. Retired instructions and the SVE share depend only on the kernel
// and vector length, not on the simulator's timing.
func ExampleNewCustomWorkload() {
	daxpy, err := armdse.NewCustomWorkload(armdse.CustomKernel{
		Name:   "daxpy",
		Arrays: map[string]int64{"x": 16384, "y": 16384},
		Loops: []armdse.CustomLoop{{
			Label:  "daxpy",
			Elems:  16384,
			Vector: true,
			Ops: []armdse.CustomOp{
				{Kind: armdse.OpLoad, Array: "x", Dst: 0},
				{Kind: armdse.OpLoad, Array: "y", Dst: 1},
				{Kind: armdse.OpFMA, Dst: 2, Srcs: []int{0, 1, 3}},
				{Kind: armdse.OpStore, Array: "y", Srcs: []int{2}},
			},
		}},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	st, err := armdse.Simulate(armdse.ThunderX2(), daxpy)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("retired:", st.Retired)
	fmt.Printf("vectorised: %.0f%%\n", st.VectorisationPct())
	// Output:
	// retired: 57344
	// vectorised: 57%
}
