package dtree

import (
	"math/rand"
	"sort"
	"testing"
)

// sortSlicePerm is the reference order: sort.Slice over a permutation of
// sample indices.
func sortSlicePerm(xs []float64) []int {
	perm := make([]int, len(xs))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return xs[perm[a]] < xs[perm[b]] })
	return perm
}

// sortRecsPerm sorts the same values through sortRecs, carrying each
// sample's index in the target slot so the permutation can be read back.
func sortRecsPerm(xs []float64) []int {
	recs := make([]splitRec, len(xs))
	for i, v := range xs {
		recs[i] = splitRec{v: v, y: float64(i)}
	}
	sortRecs(recs)
	perm := make([]int, len(recs))
	for k, r := range recs {
		perm[k] = int(r.y)
	}
	return perm
}

// quicksortKiller builds McIlroy's adversarial input ("A Killer Adversary
// for Quicksort", 1999) against sort.Slice: values stay undecided ("gas")
// until a comparison of two gas values forces one of them solid, and the
// adversary solidifies the element it guesses is the next pivot with the
// next-smallest value. Freezing the first operand unless the second is that
// guess makes pdqsort's partial insertion sort see a descent at once, so it
// never short-cuts the run; every partition is then badly unbalanced,
// pdqsort spends its bad-pivot allowance and finishes with its heapsort
// fallback (for every size and tie width this test uses). Each frozen value
// is solid/tie, so tie > 1 leaves runs of equal values for the heapsort to
// order. The sort is deterministic, so replaying the frozen values makes
// the same comparisons.
func quicksortKiller(n, tie int) []float64 {
	gas := float64(n)
	val := make([]float64, n) // by sample
	for i := range val {
		val[i] = gas
	}
	perm := make([]int, n) // sample at each position
	for i := range perm {
		perm[i] = i
	}
	frozen, candidate := 0, 0 // candidate is a position
	sort.Slice(perm, func(a, b int) bool {
		x, y := perm[a], perm[b]
		if val[x] == gas && val[y] == gas {
			v := float64(frozen / tie)
			if b == candidate {
				val[y] = v
			} else {
				val[x] = v
			}
			frozen++
		}
		if val[x] == gas {
			candidate = a
		} else if val[y] == gas {
			candidate = b
		}
		return val[x] < val[y]
	})
	return val
}

// TestSplitSortMatchesSortSlice pins the property the exact split search's
// byte-identical trees rest on: sortRecs leaves tied values in exactly the
// order sort.Slice does. Sizes straddle pdqsort's insertion-sort cutoff
// (12) and its ninther/partial-insertion threshold (50); the patterns hit
// the sorted and reversed fast paths, the duplicate-partition path and the
// pattern breaker; the adversarial inputs reach the heapsort fallback.
func TestSplitSortMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	patterns := map[string]func(n, i int) float64{
		"sorted":      func(n, i int) float64 { return float64(i) },
		"reversed":    func(n, i int) float64 { return float64(n - i) },
		"all-equal":   func(n, i int) float64 { return 7 },
		"organ-pipe":  func(n, i int) float64 { return float64(min(i, n-1-i)) },
		"few-values":  func(n, i int) float64 { return float64(rng.Intn(3)) },
		"sawtooth":    func(n, i int) float64 { return float64(i % 5) },
		"sorted-tail": func(n, i int) float64 { return float64(i/2) + float64(i%2)*0.5 },
		"random":      func(n, i int) float64 { return float64(rng.Intn(n)) },
	}
	check := func(name string, xs []float64) {
		t.Helper()
		want := sortSlicePerm(xs)
		got := sortRecsPerm(xs)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%s (n=%d): permutations differ at %d: sortRecs %d, sort.Slice %d",
					name, len(xs), k, got[k], want[k])
			}
		}
	}
	for _, n := range []int{0, 1, 2, 11, 12, 13, 49, 50, 51, 200, 1000} {
		for name, gen := range patterns {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = gen(n, i)
			}
			check(name, xs)
		}
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(300)
		distinct := 1 + rng.Intn(n)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(distinct))
		}
		check("random-ties", xs)
	}
	for _, n := range []int{500, 2000} {
		for _, tie := range []int{1, 3, 8} {
			check("adversarial", quicksortKiller(n, tie))
		}
	}
}

// TestSplitSortHeapsort checks the heapsort fallback on its own: a zero
// bad-pivot allowance sends pdqsortRec straight to heapSortRec.
func TestSplitSortHeapsort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	recs := make([]splitRec, 333)
	for i := range recs {
		recs[i] = splitRec{v: float64(rng.Intn(50)), y: float64(i)}
	}
	pdqsortRec(recs, 0, len(recs), 0)
	for k := 1; k < len(recs); k++ {
		if recs[k].v < recs[k-1].v {
			t.Fatalf("heapsort left %g before %g at %d", recs[k-1].v, recs[k].v, k)
		}
	}
}
