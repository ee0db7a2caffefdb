package params

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"armdse/internal/stats"
)

func TestFeatureRoundTrip(t *testing.T) {
	cfg := ThunderX2()
	f := cfg.Features()
	if len(f) != NumFeatures {
		t.Fatalf("feature count = %d, want %d", len(f), NumFeatures)
	}
	back, err := FromFeatures(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Core, cfg.Core) {
		t.Errorf("core round trip:\n%+v\n%+v", back.Core, cfg.Core)
	}
	// Mem differs only in zero-valued fidelity/clock defaults.
	if back.Mem.L1DSize != cfg.Mem.L1DSize || back.Mem.RAMLatencyNs != cfg.Mem.RAMLatencyNs ||
		back.Mem.L2ClockGHz != cfg.Mem.L2ClockGHz {
		t.Errorf("mem round trip:\n%+v\n%+v", back.Mem, cfg.Mem)
	}
}

func TestFromFeaturesLengthError(t *testing.T) {
	if _, err := FromFeatures(make([]float64, 7)); err == nil {
		t.Error("short feature vector accepted")
	}
}

func TestFeatureNamesAndIndex(t *testing.T) {
	names := FeatureNames()
	if len(names) != NumFeatures {
		t.Fatalf("names = %d", len(names))
	}
	seen := map[string]bool{}
	for i, n := range names {
		if n == "" {
			t.Fatalf("empty name at %d", i)
		}
		if seen[n] {
			t.Fatalf("duplicate name %q", n)
		}
		seen[n] = true
		if FeatureIndex(n) != i {
			t.Errorf("FeatureIndex(%q) = %d, want %d", n, FeatureIndex(n), i)
		}
	}
	if FeatureIndex("no-such-feature") != -1 {
		t.Error("unknown name resolved")
	}
}

func TestSpaceMatchesFeatureOrder(t *testing.T) {
	sp := Space()
	if len(sp) != NumFeatures {
		t.Fatalf("space size = %d", len(sp))
	}
	names := FeatureNames()
	for i, p := range sp {
		if p.Name != names[i] {
			t.Errorf("space[%d] = %q, want %q", i, p.Name, names[i])
		}
		if len(p.Values()) < 2 {
			t.Errorf("%s has %d values", p.Name, len(p.Values()))
		}
	}
	if len(SpaceByName()) != NumFeatures {
		t.Error("SpaceByName incomplete")
	}
}

func TestParamValues(t *testing.T) {
	p := Param{Name: "x", Min: 128, Max: 2048, Scale: Pow2}
	vals := p.Values()
	want := []float64{128, 256, 512, 1024, 2048}
	if len(vals) != len(want) {
		t.Fatalf("pow2 values = %v", vals)
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("pow2 values = %v", vals)
		}
	}
	lin := Param{Name: "y", Min: 1, Max: 2, Step: 0.25}
	if n := len(lin.Values()); n != 5 {
		t.Errorf("linear fractional values = %d, want 5", n)
	}
}

func TestTableIIRanges(t *testing.T) {
	// Spot-check the ranges against the paper's Table II.
	sp := SpaceByName()
	checks := []struct {
		name     string
		min, max float64
	}{
		{"Vector-Length", 128, 2048},
		{"Fetch-Block-Size", 4, 2048},
		{"Loop-Buffer-Size", 1, 512},
		{"GP-Registers", 40, 512},
		{"FP-SVE-Registers", 40, 512},
		{"Predicate-Registers", 24, 512},
		{"Conditional-Registers", 8, 512},
		{"Commit-Width", 1, 64},
		{"Frontend-Width", 1, 64},
		{"LSQ-Completion-Width", 1, 64},
		{"ROB-Size", 8, 512},
		{"Load-Queue-Size", 4, 512},
		{"Store-Queue-Size", 4, 512},
		{"Load-Bandwidth", 16, 1024},
		{"Store-Bandwidth", 16, 1024},
		{"Mem-Requests-Per-Cycle", 1, 32},
		{"Mem-Loads-Per-Cycle", 1, 32},
		{"Mem-Stores-Per-Cycle", 1, 32},
	}
	for _, c := range checks {
		p, ok := sp[c.name]
		if !ok {
			t.Errorf("missing %s", c.name)
			continue
		}
		if p.Min != c.min || p.Max != c.max {
			t.Errorf("%s = [%g, %g], want [%g, %g]", c.name, p.Min, p.Max, c.min, c.max)
		}
	}
}

func TestSampleAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		cfg := Sample(rng)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("sample %d invalid: %v\n%+v", i, err, cfg)
		}
		// Paper constraints hold explicitly.
		if cfg.Core.LoadBandwidth < cfg.Core.VectorLength/8 {
			t.Fatalf("sample %d: load bandwidth %d below vector bytes %d",
				i, cfg.Core.LoadBandwidth, cfg.Core.VectorLength/8)
		}
		if cfg.Core.StoreBandwidth < cfg.Core.VectorLength/8 {
			t.Fatalf("sample %d: store bandwidth below vector", i)
		}
		if cfg.Mem.L2Size <= cfg.Mem.L1DSize {
			t.Fatalf("sample %d: L2 %d not above L1 %d", i, cfg.Mem.L2Size, cfg.Mem.L1DSize)
		}
		if cfg.Mem.L2Latency <= cfg.Mem.L1DLatency {
			t.Fatalf("sample %d: L2 latency not above L1", i)
		}
	}
}

func TestSampleCoversRanges(t *testing.T) {
	// Over many samples, every parameter must visit both halves of its
	// range (uniformity smoke test, not a statistical test).
	rng := rand.New(rand.NewSource(11))
	sp := Space()
	lo := make([]bool, NumFeatures)
	hi := make([]bool, NumFeatures)
	for i := 0; i < 2000; i++ {
		f := Sample(rng).Features()
		for j, p := range sp {
			mid := math.Sqrt(p.Min * p.Max) // geometric midpoint suits pow2
			if f[j] <= mid {
				lo[j] = true
			} else {
				hi[j] = true
			}
		}
	}
	for j, p := range sp {
		if !lo[j] || !hi[j] {
			t.Errorf("%s never visited both halves (lo=%v hi=%v)", p.Name, lo[j], hi[j])
		}
	}
}

func TestSampleN(t *testing.T) {
	a := SampleN(42, 10)
	b := SampleN(42, 10)
	if len(a) != 10 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("SampleN not deterministic at %d", i)
		}
	}
	c := SampleN(43, 10)
	same := 0
	for i := range a {
		if reflect.DeepEqual(a[i], c[i]) {
			same++
		}
	}
	if same == 10 {
		t.Error("different seeds produced identical samples")
	}
}

func TestConstrainedSampleFallback(t *testing.T) {
	// A constraint excluding every value falls back to the maximum.
	p := Param{Name: "x", Min: 16, Max: 64, Scale: Pow2}
	rng := rand.New(rand.NewSource(1))
	if got := sampleAbove(rng, p.Values(), 1000, -1); got != 64 {
		t.Errorf("fallback = %g, want 64", got)
	}
}

// TestSampleAllocFree pins that drawing a configuration allocates nothing:
// the value tables are built once, and the constrained draws index them in
// place. Candidate pools draw thousands of configurations per generation.
func TestSampleAllocFree(t *testing.T) {
	rng := stats.NewRand(3)
	if n := testing.AllocsPerRun(200, func() { _ = Sample(rng) }); n != 0 {
		t.Errorf("Sample allocates %v times per draw, want 0", n)
	}
}

func TestThunderX2Valid(t *testing.T) {
	if err := ThunderX2().Validate(); err != nil {
		t.Fatalf("ThunderX2 baseline invalid: %v", err)
	}
}
