package search

import (
	"math/rand"
	"testing"

	"armdse/internal/dtree"
	"armdse/internal/params"
)

// analyticObj rewards big ROBs and long vectors, penalises RAM latency —
// a known optimum at the parameter extremes.
func analyticObj(cfg params.Config) float64 {
	return -float64(cfg.Core.ROBSize) - float64(cfg.Core.VectorLength)/4 + 2*cfg.Mem.RAMLatencyNs
}

func TestBestFindsExtremes(t *testing.T) {
	res, err := Best(analyticObj, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Refinement over the discrete space must reach the known optimum on
	// the three driving parameters.
	if res.Config.Core.ROBSize != 512 {
		t.Errorf("ROB = %d, want 512", res.Config.Core.ROBSize)
	}
	if res.Config.Core.VectorLength != 2048 {
		t.Errorf("VL = %d, want 2048", res.Config.Core.VectorLength)
	}
	if res.Config.Mem.RAMLatencyNs != 20 {
		t.Errorf("RAM latency = %g, want 20", res.Config.Mem.RAMLatencyNs)
	}
	if err := res.Config.Validate(); err != nil {
		t.Errorf("winner invalid: %v", err)
	}
	if res.Screened == 0 || res.Refined == 0 {
		t.Errorf("counts: %+v", res)
	}
}

func TestBestRespectsConstraintsAfterRefine(t *testing.T) {
	// Push toward max vector length; the repaired config must keep the
	// bandwidth >= vector constraint.
	obj := func(cfg params.Config) float64 { return -float64(cfg.Core.VectorLength) }
	res, err := Best(obj, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Core.VectorLength != 2048 {
		t.Fatalf("VL = %d", res.Config.Core.VectorLength)
	}
	if res.Config.Core.LoadBandwidth < 256 || res.Config.Core.StoreBandwidth < 256 {
		t.Errorf("bandwidth constraint broken: %d/%d",
			res.Config.Core.LoadBandwidth, res.Config.Core.StoreBandwidth)
	}
}

func TestBestErrors(t *testing.T) {
	if _, err := Best(nil, 1); err == nil {
		t.Error("nil objective accepted")
	}
}

func TestSurrogateObjective(t *testing.T) {
	// Train a surrogate on an analytic target over sampled configs, then
	// search it: the winner must be far better than the sample mean.
	rng := rand.New(rand.NewSource(4))
	var x [][]float64
	var y []float64
	for i := 0; i < 1500; i++ {
		cfg := params.Sample(rng)
		x = append(x, cfg.Features())
		y = append(y, analyticObj(cfg))
	}
	tree, err := dtree.Train(x, y, dtree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Best(SurrogateObjective(tree), 5)
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	trueScore := analyticObj(res.Config)
	if trueScore >= mean {
		t.Errorf("surrogate-guided winner (%.0f true score) no better than mean (%.0f)", trueScore, mean)
	}
}

func TestRepair(t *testing.T) {
	cfg := params.ThunderX2()
	cfg.Core.VectorLength = 2048
	cfg.Core.LoadBandwidth = 16
	cfg.Core.StoreBandwidth = 16
	cfg.Mem.L2Size = cfg.Mem.L1DSize
	cfg.Mem.L2Latency = cfg.Mem.L1DLatency
	params.Repair(&cfg)
	if err := cfg.Validate(); err != nil {
		t.Errorf("repair left config invalid: %v", err)
	}
}
