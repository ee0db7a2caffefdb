package orchestrate

import (
	"context"
	"strings"
	"testing"

	"armdse/internal/dataset"
	"armdse/internal/params"
	"armdse/internal/simeng"
	"armdse/internal/sstmem"
)

func TestNewBackendKinds(t *testing.T) {
	cfg := params.ThunderX2()
	for _, kind := range []string{"", BackendSST, BackendFlat} {
		mem, err := NewBackend(kind, cfg)
		if err != nil {
			t.Fatalf("NewBackend(%q): %v", kind, err)
		}
		var _ simeng.MemoryBackend = mem
		if lb := mem.LineBytes(); lb != cfg.Mem.CacheLineWidth {
			t.Errorf("NewBackend(%q).LineBytes() = %d, want %d", kind, lb, cfg.Mem.CacheLineWidth)
		}
	}
	if _, err := NewBackend("nope", cfg); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("unknown backend error = %v", err)
	}
}

// TestBackendFollowsConfigFidelity pins the config path to the Table I
// hardware reference: BackendSST builds the hierarchy at the fidelity
// cfg.Mem names, so a High-fidelity config gets a High-fidelity hierarchy.
func TestBackendFollowsConfigFidelity(t *testing.T) {
	for _, fid := range []sstmem.Fidelity{sstmem.Basic, sstmem.High} {
		cfg := params.ThunderX2()
		cfg.Mem.Fidelity = fid
		mem, err := NewBackend(BackendSST, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h, ok := mem.(*sstmem.Hierarchy)
		if !ok {
			t.Fatalf("sst backend is %T, want *sstmem.Hierarchy", mem)
		}
		if got := h.Config().Fidelity; got != fid {
			t.Errorf("config fidelity %v built a %v hierarchy", fid, got)
		}
	}
}

// TestRunOneOnBackends runs one workload on both backends: every run must
// retire the same instruction count, uphold the stall-sum invariant, and
// the ideal flat memory must never be slower than the hierarchy.
func TestRunOneOnBackends(t *testing.T) {
	cfg := params.ThunderX2()
	w := tinySuite()[0]
	stats := map[string]simeng.Stats{}
	for _, kind := range []string{BackendSST, BackendFlat} {
		st, err := RunOneOn(kind, cfg, w, 0)
		if err != nil {
			t.Fatalf("RunOneOn(%q): %v", kind, err)
		}
		if got := st.Stalls.Total(); got != st.Cycles {
			t.Errorf("%s: stall sum %d != cycles %d", kind, got, st.Cycles)
		}
		stats[kind] = st
	}
	if stats[BackendFlat].Retired != stats[BackendSST].Retired {
		t.Errorf("flat retired %d, sst retired %d", stats[BackendFlat].Retired, stats[BackendSST].Retired)
	}
	if stats[BackendFlat].Cycles > stats[BackendSST].Cycles {
		t.Errorf("ideal memory slower than hierarchy: %d > %d",
			stats[BackendFlat].Cycles, stats[BackendSST].Cycles)
	}
}

// TestCollectCarriesStallAux checks the analysis thread end to end: a
// collection's dataset is schema v2 and, per row and app, the stall
// columns sum exactly to the app's cycle target.
func TestCollectCarriesStallAux(t *testing.T) {
	res, err := Collect(context.Background(), Options{
		Seed:    3,
		Samples: 4,
		Workers: 2,
		Suite:   tinySuite(),
	})
	if err != nil {
		t.Fatal(err)
	}
	d := res.Data
	if d.SchemaVersion() != 2 {
		t.Fatalf("collected dataset schema v%d, want v2", d.SchemaVersion())
	}
	classes := simeng.StallClassNames()
	for _, app := range d.Apps {
		y, err := d.Target(app)
		if err != nil {
			t.Fatal(err)
		}
		cols := make([][]float64, len(classes))
		for c, name := range classes {
			cols[c], err = d.AuxColumn(dataset.StallColumn(app, name))
			if err != nil {
				t.Fatal(err)
			}
		}
		for r := range y {
			var sum float64
			for c := range classes {
				sum += cols[c][r]
			}
			if sum != y[r] {
				t.Errorf("%s row %d: stall columns sum to %g, cycles %g", app, r, sum, y[r])
			}
		}
	}
}
