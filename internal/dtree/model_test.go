package dtree

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"armdse/internal/stats"
)

func trainSmallModels(t *testing.T) (*Tree, *Forest, [][]float64, []float64) {
	t.Helper()
	rng := stats.NewRand(stats.SubSeed(7, 0))
	x := make([][]float64, 200)
	y := make([]float64, 200)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		y[i] = 3*x[i][0] + x[i][1]
	}
	tree, err := Train(x, y, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	forest, err := TrainForest(x, y, ForestOptions{Trees: 5, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tree, forest, x, y
}

func TestModelEnvelopeRoundTrip(t *testing.T) {
	tree, forest, x, _ := trainSmallModels(t)
	for _, tc := range []struct {
		name  string
		model Predictor
	}{
		{"tree", tree},
		{"forest", forest},
	} {
		var buf bytes.Buffer
		if err := WriteModel(tc.model, &buf); err != nil {
			t.Fatalf("%s: WriteModel: %v", tc.name, err)
		}
		if !strings.Contains(buf.String(), `"kind":"`+tc.name+`"`) {
			t.Errorf("%s: envelope missing kind tag: %s", tc.name, buf.String()[:80])
		}
		back, err := ReadModel(&buf)
		if err != nil {
			t.Fatalf("%s: ReadModel: %v", tc.name, err)
		}
		for _, row := range x[:20] {
			if got, want := back.Predict(row), tc.model.Predict(row); got != want {
				t.Fatalf("%s: round-tripped model predicts %v, original %v", tc.name, got, want)
			}
		}
		if tc.name == "forest" {
			f, ok := back.(*Forest)
			if !ok {
				t.Fatalf("forest loaded as %T", back)
			}
			if f.NumTrees() != forest.NumTrees() {
				t.Fatalf("forest round trip lost trees: %d != %d", f.NumTrees(), forest.NumTrees())
			}
		}
	}
}

func TestModelEnvelopeSaveLoadFile(t *testing.T) {
	_, forest, x, _ := trainSmallModels(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := SaveModel(forest, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.Predict(x[0]), forest.Predict(x[0]); got != want {
		t.Fatalf("loaded model predicts %v, original %v", got, want)
	}
}

// constPredictor is a Predictor WriteModel cannot serialise.
type constPredictor float64

func (c constPredictor) Predict([]float64) float64 { return float64(c) }

// A failed SaveModel leaves the model already at its path byte-unchanged
// and no temporary file beside it.
func TestSaveModelFailureKeepsEarlierFile(t *testing.T) {
	tree, _, _, _ := trainSmallModels(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	if err := SaveModel(tree, path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveModel(constPredictor(1), path); err == nil {
		t.Fatal("unsupported predictor saved")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Errorf("failed save changed the earlier model: %d bytes, was %d (err %v)", len(after), len(before), err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		for _, e := range entries {
			t.Errorf("directory holds %s", e.Name())
		}
	}
}

// The fixtures pin the artifact format: if serialisation drifts, these
// checked-in files stop loading and the test localises the break.
func TestModelEnvelopeFixtures(t *testing.T) {
	for _, tc := range []struct {
		file string
		// probe → expected prediction, chosen so tree kind and structure
		// both matter.
		probe []float64
		want  float64
	}{
		{"model_tree_v1.json", []float64{0, 0}, 1},
		{"model_tree_v1.json", []float64{1, 0}, 2},
		{"model_forest_v1.json", []float64{0, 0}, 1.5}, // mean(1, 2)
		{"model_forest_v1.json", []float64{1, 1}, 2.5}, // mean(2, 3)
		{"model_legacy_tree.json", []float64{0, 0}, 1},
	} {
		m, err := LoadModel(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if got := m.Predict(tc.probe); got != tc.want {
			t.Errorf("%s: Predict(%v) = %v, want %v", tc.file, tc.probe, got, tc.want)
		}
	}
	if m, err := LoadModel(filepath.Join("testdata", "model_legacy_tree.json")); err != nil {
		t.Fatal(err)
	} else if _, ok := m.(*Tree); !ok {
		t.Errorf("legacy artifact loaded as %T, want *Tree", m)
	}
}

func TestModelEnvelopeRejects(t *testing.T) {
	for name, payload := range map[string]string{
		"unknown kind":    `{"version":1,"kind":"svm","svm":{}}`,
		"bad version":     `{"version":99,"kind":"tree","tree":{"n_features":1,"nodes":[{"f":-1,"v":1}]}}`,
		"missing payload": `{"version":1,"kind":"forest"}`,
		"empty forest":    `{"version":1,"kind":"forest","forest":{"trees":[]}}`,
		"mixed widths":    `{"version":1,"kind":"forest","forest":{"trees":[{"n_features":1,"nodes":[{"f":-1,"v":1}]},{"n_features":2,"nodes":[{"f":-1,"v":1}]}]}}`,
		"not json":        `nope`,
	} {
		if _, err := ReadModel(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: ReadModel accepted %q", name, payload)
		}
	}
}

func TestPermutationImportanceModelForest(t *testing.T) {
	_, forest, x, y := trainSmallModels(t)
	names := []string{"a", "b", "c"}
	imps, err := PermutationImportanceModel(forest, x, y, names, ImportanceOptions{Repeats: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(imps) != 3 {
		t.Fatalf("got %d importances", len(imps))
	}
	// y = 3a + b: importance must rank a > b > c.
	if !(imps[0].MeanErrorIncrease > imps[1].MeanErrorIncrease &&
		imps[1].MeanErrorIncrease > imps[2].MeanErrorIncrease) {
		t.Errorf("forest importance ordering wrong: %+v", imps)
	}
	// Worker-count invariance, same as the tree path.
	par, err := PermutationImportanceModel(forest, x, y, names, ImportanceOptions{Repeats: 4, Seed: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range imps {
		if imps[i] != par[i] {
			t.Fatalf("feature %d differs across worker counts: %+v vs %+v", i, imps[i], par[i])
		}
	}
}
