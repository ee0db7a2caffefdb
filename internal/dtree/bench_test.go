package dtree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"armdse/internal/stats"
)

// benchData builds a 30-feature dataset resembling the study's shape.
func benchData(n int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(20))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, 30)
		for j := range row {
			row[j] = rng.Float64() * 100
		}
		x[i] = row
		y[i] = 1000 + 50*row[0] + 20*row[5]*row[5]/100 + rng.NormFloat64()*30
	}
	return x, y
}

// trainVariants are the worker counts the README's benchmark table
// compares; benchstat groups them by the /mode=... key.
var trainVariants = []struct {
	name string
	opt  Options
}{
	{"exact-serial", Options{Workers: 1}},
	{"exact-8w", Options{Workers: 8}},
}

// BenchmarkTrain measures surrogate training at the dataset sizes the paper's
// pipeline meets in practice (10k) and at scale (100k; skipped under -short).
// Every variant trains the same model byte for byte — only the cost differs.
func BenchmarkTrain(b *testing.B) {
	for _, rows := range []int{10_000, 100_000} {
		if rows > 10_000 && testing.Short() {
			continue
		}
		x, y := benchData(rows)
		for _, v := range trainVariants {
			b.Run(fmt.Sprintf("rows=%d/mode=%s", rows, v.name), func(b *testing.B) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Train(x, y, v.opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSplitSort times the exact split search's per-(node, feature)
// sort on one 800-row node whose feature takes 30 discrete values, as a
// design-space parameter does: the gather into (value, target) records plus
// sortRecs, against the sort.Slice-over-row-indices kernel it replaced.
// Both produce the same order.
func BenchmarkSplitSort(b *testing.B) {
	x, y := benchData(800)
	const f = 5
	for _, row := range x {
		row[f] = float64(int(row[f]) % 30)
	}
	perm := make([]int, len(x))
	recs := make([]splitRec, len(x))
	b.Run("sortRecs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k, row := range x {
				recs[k] = splitRec{v: row[f], y: y[k]}
			}
			sortRecs(recs)
		}
	})
	b.Run("sort.Slice", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := range perm {
				perm[k] = k
			}
			sort.Slice(perm, func(a, c int) bool { return x[perm[a]][f] < x[perm[c]][f] })
		}
	})
}

func BenchmarkTrain2k(b *testing.B) {
	x, y := benchData(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(x, y, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	x, y := benchData(2000)
	tree, err := Train(x, y, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += tree.Predict(x[i%len(x)])
	}
	_ = sink
}

func BenchmarkPredictBatch(b *testing.B) {
	x, y := benchData(10_000)
	tree, err := Train(x, y, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = tree.PredictBatch(x, workers)
			}
		})
	}
}

func BenchmarkPermutationImportance(b *testing.B) {
	x, y := benchData(1000)
	tree, err := Train(x, y, Options{})
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, 30)
	for i := range names {
		names[i] = "f"
	}
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opt := ImportanceOptions{Repeats: 2, Seed: 20, Workers: workers}
				if _, err := PermutationImportanceOpt(tree, x, y, names, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTrainForest(b *testing.B) {
	x, y := benchData(500)
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := TrainForest(x, y, ForestOptions{Trees: 10, Seed: 20, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkForestWarmRefit compares a cold per-generation retrain against
// the warm rotating-subset refit the adaptive proposer runs at every
// generation barrier — the algorithmic half of the barrier-cost reduction.
func BenchmarkForestWarmRefit(b *testing.B) {
	x, y := benchData(2000)
	prev, _, err := RefitForest(nil, x, y, RefitOptions{ForestOptions: ForestOptions{Trees: 20, Seed: 20}})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		refresh int
	}{
		{"cold", 20}, // Refresh == Trees: full retrain, the pre-warm-start cost
		{"warm", 0},  // default Trees/4 rotating subset
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := RefitForest(prev, x, y, RefitOptions{
					ForestOptions: ForestOptions{Trees: 20, Seed: stats.SubSeed(20, i)},
					Refresh:       bc.refresh,
					Gen:           i,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
