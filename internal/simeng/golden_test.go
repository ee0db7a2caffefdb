package simeng_test

// Golden-determinism harness. testdata/golden_cycles.json pins the whole
// Stats record (cycles, retired counts, the stall breakdown, occupancy
// integrals, per-port issue counts, per-structure stall counters and the
// memory counters) of every (config, workload) pair in the golden matrix and
// of seeded random programs on random configurations. Any structural or
// performance refactor of the stage pipeline, its schedulers or the
// memory-backend seam must keep every entry byte-identical. Regenerate
// deliberately with:
//
//	go test ./internal/simeng -run TestGoldenCycles -update-golden
//
// and treat any diff in the regenerated file as a behaviour change that needs
// justifying, not as noise.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"armdse/internal/isa"

	"armdse/internal/params"
	"armdse/internal/simeng"
	"armdse/internal/sstmem"
	"armdse/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_cycles.json from the current simulator")

// goldenSeed derives the sampled design-space points of the golden matrix.
const goldenSeed = 20240805

// goldenConfigs is the fixed configuration matrix: the ThunderX2 baseline
// plus sampled design-space points covering both fidelity-relevant extremes
// (the sampler varies all 30 parameters, so cache sizes, bandwidths and
// vector lengths all move).
func goldenConfigs() map[string]params.Config {
	m := map[string]params.Config{"tx2": params.ThunderX2()}
	for i := 0; i < 5; i++ {
		m[fmt.Sprintf("s%d", i)] = params.ConfigAt(goldenSeed, i)
	}
	return m
}

const goldenPath = "testdata/golden_cycles.json"

// goldenRandomCases is the number of seeded random (program, config) cases;
// every other one draws the divide-heavy mix.
const goldenRandomCases = 32

// goldenRun simulates one program on a fresh core and a fresh hierarchy, as
// the collection pipeline does.
func goldenRun(t *testing.T, name string, core simeng.Config, mem sstmem.Config, stream isa.Stream) simeng.Stats {
	t.Helper()
	h, err := sstmem.New(mem)
	if err != nil {
		t.Fatalf("%s: building hierarchy: %v", name, err)
	}
	c, err := simeng.New(core, h)
	if err != nil {
		t.Fatalf("%s: building core: %v", name, err)
	}
	st, err := c.Run(stream)
	if err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	return st
}

// goldenMatrix runs every golden case and returns its Stats by case name.
func goldenMatrix(t *testing.T) map[string]simeng.Stats {
	got := make(map[string]simeng.Stats)
	for name, cfg := range goldenConfigs() {
		for _, w := range workload.TestSuite() {
			prog, err := w.Program(cfg.Core.VectorLength)
			if err != nil {
				t.Fatalf("%s: building program: %v", w.Name(), err)
			}
			key := name + "/" + w.Name()
			got[key] = goldenRun(t, key, cfg.Core, cfg.Mem, prog.Stream())
		}
	}
	mem := params.ThunderX2().Mem
	for i := 0; i < goldenRandomCases; i++ {
		divide := i%2 == 1
		insts, core := simeng.RandomCase(rand.New(rand.NewSource(goldenSeed+int64(i))), 1500, divide)
		key := fmt.Sprintf("rand/%02d", i)
		if divide {
			key += "-div"
		}
		got[key] = goldenRun(t, key, core, mem, isa.NewSliceStream(insts))
	}
	return got
}

// encodeGolden renders the matrix one compact entry per line, sorted by
// name, so a behaviour change shows up as a readable line diff.
func encodeGolden(t *testing.T, m map[string]simeng.Stats) []byte {
	var buf bytes.Buffer
	buf.WriteString("{\n")
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for i, k := range keys {
		v, err := json.Marshal(m[k])
		if err != nil {
			t.Fatal(err)
		}
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&buf, "\t%q: %s%s\n", k, v, sep)
	}
	buf.WriteString("}\n")
	return buf.Bytes()
}

func TestGoldenCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix simulates the full test suite on six configs")
	}
	got := goldenMatrix(t)

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, encodeGolden(t, got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s with %d entries", goldenPath, len(got))
		return
	}

	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (run with -update-golden to create): %v", err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, matrix has %d", len(want), len(got))
	}
	for key, w := range want {
		st, ok := got[key]
		if !ok {
			t.Errorf("%s: in golden file but not in matrix", key)
			continue
		}
		g, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s: stats differ from golden\n got %s\nwant %s", key, g, w)
		}
	}
}
