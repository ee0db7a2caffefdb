package armdse_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"armdse"
)

func tinySuite() []armdse.Workload {
	return []armdse.Workload{
		armdse.NewSTREAM(armdse.STREAMInputs{ArraySize: 512, Times: 1}),
		armdse.NewMiniBUDE(armdse.MiniBUDEInputs{Atoms: 8, Poses: 16, Iterations: 1, Repeats: 1}),
		armdse.NewTeaLeaf(armdse.TeaLeafInputs{NX: 8, NY: 8, Steps: 1, CGIters: 2, Dt: 0.004}),
		armdse.NewMiniSweep(armdse.MiniSweepInputs{NX: 2, NY: 2, NZ: 2, Angles: 4, Groups: 1, Sweeps: 1}),
	}
}

func TestSimulateFacade(t *testing.T) {
	for _, w := range tinySuite() {
		st, err := armdse.Simulate(armdse.ThunderX2(), w)
		if err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
		if st.Cycles <= 0 || st.Retired <= 0 {
			t.Errorf("%s: %+v", w.Name(), st)
		}
	}
}

func TestSuitesAndNames(t *testing.T) {
	test := armdse.TestSuite()
	paper := armdse.PaperSuite()
	if len(test) != 4 || len(paper) != 4 {
		t.Fatal("suites must have four applications")
	}
	wantNames := []string{armdse.STREAM, armdse.MiniBUDE, armdse.TeaLeaf, armdse.MiniSweep}
	for i := range test {
		if test[i].Name() != wantNames[i] || paper[i].Name() != wantNames[i] {
			t.Errorf("suite order: %s vs %s", test[i].Name(), wantNames[i])
		}
	}
}

func TestSpaceFacade(t *testing.T) {
	if len(armdse.Space()) != armdse.NumFeatures {
		t.Error("space size mismatch")
	}
	if len(armdse.FeatureNames()) != armdse.NumFeatures {
		t.Error("feature names mismatch")
	}
	cfgs := armdse.SampleConfigs(1, 5)
	if len(cfgs) != 5 {
		t.Fatal("sample count")
	}
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			t.Errorf("sampled config invalid: %v", err)
		}
		if len(cfg.Features()) != armdse.NumFeatures {
			t.Error("feature vector size")
		}
	}
}

func TestEndToEndSurrogateFlow(t *testing.T) {
	ctx := context.Background()
	res, err := armdse.Collect(ctx, armdse.CollectOptions{
		Seed:    5,
		Samples: 40,
		Suite:   tinySuite(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := armdse.TrainSurrogate(res.Data, armdse.STREAM)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumFeatures() != armdse.NumFeatures {
		t.Errorf("surrogate features = %d", tree.NumFeatures())
	}
	imps, err := armdse.FeatureImportance(tree, res.Data, armdse.STREAM, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(imps) != armdse.NumFeatures {
		t.Errorf("importances = %d", len(imps))
	}
	top := armdse.TopImportances(imps, 3)
	if len(top) != 3 {
		t.Errorf("top = %d", len(top))
	}
	if _, err := armdse.TrainSurrogate(res.Data, "nope"); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := armdse.FeatureImportance(tree, res.Data, "nope", 2, 5); err == nil {
		t.Error("unknown app accepted for importance")
	}
}

func TestConfigIO(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	cfg := armdse.ThunderX2()
	if err := armdse.SaveConfig(cfg, path); err != nil {
		t.Fatal(err)
	}
	back, err := armdse.LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Core, cfg.Core) || back.Mem != cfg.Mem {
		t.Errorf("round trip changed config:\n%+v\n%+v", back, cfg)
	}
	if _, err := armdse.LoadConfig(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	// Corrupt JSON.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := writeFile(bad, "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := armdse.LoadConfig(bad); err == nil {
		t.Error("corrupt JSON accepted")
	}
	// Invalid config.
	invalid := filepath.Join(t.TempDir(), "invalid.json")
	broken := cfg
	broken.Core.ROBSize = 1
	if err := armdse.SaveConfig(broken, invalid); err != nil {
		t.Fatal(err)
	}
	if _, err := armdse.LoadConfig(invalid); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestLoadConfigRejectsShrunkCache pins that dserun -config refuses a cache
// the model would round down: a 1.5 MiB, 16-way, 64-B L2 has 1,536 sets,
// which the cache would index as 1,024 and so model 1 MiB.
func TestLoadConfigRejectsShrunkCache(t *testing.T) {
	path := filepath.Join(t.TempDir(), "l2.json")
	cfg := armdse.ThunderX2()
	cfg.Mem.L2Size, cfg.Mem.L2Assoc, cfg.Mem.CacheLineWidth = 1536<<10, 16, 64
	if err := armdse.SaveConfig(cfg, path); err != nil {
		t.Fatal(err)
	}
	_, err := armdse.LoadConfig(path)
	if err == nil || !strings.Contains(err.Error(), "1024 sets") {
		t.Errorf("LoadConfig(1.5 MiB 16-way L2) err = %v, want it to name 1024 sets", err)
	}
}

func TestExperimentFacade(t *testing.T) {
	if len(armdse.Experiments()) != 12 {
		t.Error("experiment registry size")
	}
	r, err := armdse.ExperimentByID("table2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(context.Background(), armdse.ExperimentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "table2" {
		t.Error("wrong experiment ran")
	}
	if _, err := armdse.ExperimentByID("zzz"); err == nil {
		t.Error("unknown experiment accepted")
	}
	data, err := armdse.CollectExperimentData(context.Background(), armdse.ExperimentOptions{
		Samples: 10, Suite: tinySuite(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if data.Len() == 0 {
		t.Error("no data collected")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestReferenceConfigsLoad(t *testing.T) {
	for _, path := range []string{
		"configs/thunderx2.json",
		"configs/a64fx-like.json",
		"configs/neoverse-v1-like.json",
	} {
		cfg, err := armdse.LoadConfig(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s invalid: %v", path, err)
		}
	}
}
