// Benchmarks regenerating every table and figure of the paper, one bench per
// artifact, plus microbenchmarks of the substrates (simulator throughput,
// surrogate training/prediction, design-space sampling).
//
// The per-figure benches run the real experiment pipeline on reduced
// workload inputs and sweep/dataset sizes so `go test -bench=.` completes in
// minutes; cmd/dsepaper runs the full-scale versions. Shapes (who wins,
// where curves saturate) are identical — see EXPERIMENTS.md.
package armdse_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"armdse"
)

// benchSuite returns reduced-input workloads sized for benchmarking.
func benchSuite() []armdse.Workload {
	return []armdse.Workload{
		armdse.NewSTREAM(armdse.STREAMInputs{ArraySize: 4096, Times: 1}),
		armdse.NewMiniBUDE(armdse.MiniBUDEInputs{Atoms: 16, Poses: 64, Iterations: 1, Repeats: 1}),
		armdse.NewTeaLeaf(armdse.TeaLeafInputs{NX: 12, NY: 12, Steps: 1, CGIters: 4, Dt: 0.004}),
		armdse.NewMiniSweep(armdse.MiniSweepInputs{NX: 3, NY: 3, NZ: 3, Angles: 8, Groups: 1, Sweeps: 1}),
	}
}

// benchOpt returns experiment options shared by the figure benches.
func benchOpt() armdse.ExperimentOptions {
	return armdse.ExperimentOptions{
		Samples: 150,
		Seed:    9,
		Suite:   benchSuite(),
	}
}

// benchData lazily collects the shared dataset used by the ML figure
// benches (fig2-fig5), exactly once per `go test` process.
var benchData struct {
	once sync.Once
	opt  armdse.ExperimentOptions
	err  error
}

func sharedBenchOpt(b *testing.B) armdse.ExperimentOptions {
	b.Helper()
	benchData.once.Do(func() {
		opt := benchOpt()
		data, err := armdse.CollectExperimentData(context.Background(), opt)
		if err != nil {
			benchData.err = err
			return
		}
		opt.Data = data
		benchData.opt = opt
	})
	if benchData.err != nil {
		b.Fatal(benchData.err)
	}
	return benchData.opt
}

// runExperiment benchmarks one experiment driver end to end.
func runExperiment(b *testing.B, id string, opt armdse.ExperimentOptions) {
	b.Helper()
	r, err := armdse.ExperimentByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Run(context.Background(), opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tables) == 0 {
			b.Fatal("empty result")
		}
	}
}

// --- One benchmark per paper table/figure -------------------------------

func BenchmarkFig1Vectorisation(b *testing.B) {
	opt := benchOpt()
	runExperiment(b, "fig1", opt)
}

func BenchmarkTable1Validation(b *testing.B) {
	opt := benchOpt()
	runExperiment(b, "table1", opt)
}

func BenchmarkTable2CoreSpace(b *testing.B) {
	runExperiment(b, "table2", armdse.ExperimentOptions{})
}

func BenchmarkTable3MemorySpace(b *testing.B) {
	runExperiment(b, "table3", armdse.ExperimentOptions{})
}

func BenchmarkTable4AppInputs(b *testing.B) {
	runExperiment(b, "table4", armdse.ExperimentOptions{})
}

func BenchmarkFig2ModelAccuracy(b *testing.B) {
	runExperiment(b, "fig2", sharedBenchOpt(b))
}

func BenchmarkFig3Importance(b *testing.B) {
	runExperiment(b, "fig3", sharedBenchOpt(b))
}

func BenchmarkFig4ImportanceVL128(b *testing.B) {
	runExperiment(b, "fig4", sharedBenchOpt(b))
}

func BenchmarkFig5ImportanceVL2048(b *testing.B) {
	runExperiment(b, "fig5", sharedBenchOpt(b))
}

func BenchmarkFig6VectorLength(b *testing.B) {
	opt := benchOpt()
	opt.Samples = 20 // small paired-sweep config count
	runExperiment(b, "fig6", opt)
}

func BenchmarkFig7ROB(b *testing.B) {
	opt := benchOpt()
	opt.Samples = 20
	runExperiment(b, "fig7", opt)
}

func BenchmarkFig8FPRegisters(b *testing.B) {
	opt := benchOpt()
	opt.Samples = 20
	runExperiment(b, "fig8", opt)
}

// --- Substrate microbenchmarks -------------------------------------------

// BenchmarkSimulator measures raw core+memory simulation throughput per
// application on the ThunderX2 baseline, reporting simulated MIPS.
func BenchmarkSimulator(b *testing.B) {
	for _, w := range benchSuite() {
		w := w
		b.Run(w.Name(), func(b *testing.B) {
			cfg := armdse.ThunderX2()
			var insts int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := armdse.Simulate(cfg, w)
				if err != nil {
					b.Fatal(err)
				}
				insts += st.Retired
			}
			b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "MIPS")
		})
	}
}

// BenchmarkCollect measures the full parallel sample→simulate→collect
// pipeline in configurations per second.
func BenchmarkCollect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := armdse.Collect(context.Background(), armdse.CollectOptions{
			Seed:    int64(i + 1),
			Samples: 24,
			Suite:   benchSuite(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Data.Len() == 0 {
			b.Fatal("no rows")
		}
	}
	b.ReportMetric(float64(24*b.N)/b.Elapsed().Seconds(), "configs/s")
}

// BenchmarkSurrogateTrain measures decision-tree training on the shared
// bench dataset.
func BenchmarkSurrogateTrain(b *testing.B) {
	opt := sharedBenchOpt(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := armdse.TrainSurrogate(opt.Data, armdse.STREAM); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSurrogatePredict measures single-point surrogate evaluation — the
// operation that replaces a multi-second simulation in DSE screening.
func BenchmarkSurrogatePredict(b *testing.B) {
	opt := sharedBenchOpt(b)
	tree, err := armdse.TrainSurrogate(opt.Data, armdse.STREAM)
	if err != nil {
		b.Fatal(err)
	}
	cfgs := armdse.SampleConfigs(3, 256)
	feats := make([][]float64, len(cfgs))
	for i, c := range cfgs {
		feats[i] = c.Features()
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += tree.Predict(feats[i%len(feats)])
	}
	if sink == 0 {
		b.Log("all-zero predictions (unexpected)")
	}
}

// BenchmarkConfigSampling measures constrained design-space sampling.
func BenchmarkConfigSampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfgs := armdse.SampleConfigs(int64(i), 100)
		if len(cfgs) != 100 {
			b.Fatal("sampling failed")
		}
	}
	b.ReportMetric(float64(100*b.N)/b.Elapsed().Seconds(), "configs/s")
}

// BenchmarkImportance measures the paper's permutation-importance analysis.
func BenchmarkImportance(b *testing.B) {
	opt := sharedBenchOpt(b)
	tree, err := armdse.TrainSurrogate(opt.Data, armdse.MiniBUDE)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		imps, err := armdse.FeatureImportance(tree, opt.Data, armdse.MiniBUDE, 3, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(imps) != armdse.NumFeatures {
			b.Fatal("wrong importance count")
		}
	}
}

// Ensure the bench suite names match the canonical names (guards against
// silent suite drift in the benches above).
func Example_benchSuiteNames() {
	for _, w := range benchSuite() {
		fmt.Println(w.Name())
	}
	// Output:
	// STREAM
	// miniBUDE
	// TeaLeaf
	// MiniSweep
}
