package hwproxy

import (
	"reflect"
	"testing"

	"armdse/internal/params"
	"armdse/internal/simeng"
	"armdse/internal/sstmem"
	"armdse/internal/workload"
)

func TestBaselines(t *testing.T) {
	sim := BaselineSim()
	hw := BaselineHW()
	if err := sim.Validate(); err != nil {
		t.Fatalf("sim baseline invalid: %v", err)
	}
	if err := hw.Validate(); err != nil {
		t.Fatalf("hw baseline invalid: %v", err)
	}
	if sim.Mem.Fidelity != sstmem.Basic {
		t.Error("sim baseline not basic fidelity")
	}
	if hw.Mem.Fidelity != sstmem.High {
		t.Error("hw baseline not high fidelity")
	}
	if !reflect.DeepEqual(sim.Core, hw.Core) {
		t.Error("baselines differ in core config; only the memory model should change")
	}
}

func TestSimVsHardwareDiverge(t *testing.T) {
	// The two fidelities must produce different but same-magnitude cycle
	// counts: the Table I property.
	w := workload.NewSTREAM(workload.STREAMInputs{ArraySize: 4096, Times: 1})
	basic, err := sstmem.New(BaselineSim().Mem)
	if err != nil {
		t.Fatal(err)
	}
	sim := simulate(t, BaselineSim(), basic, w)
	cfg := BaselineHW()
	proxy, err := NewBackend(cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	hw := simulate(t, cfg, proxy, w)
	if sim.Cycles == hw.Cycles {
		t.Error("fidelities produced identical cycles; no divergence to validate")
	}
	ratio := float64(sim.Cycles) / float64(hw.Cycles)
	if ratio < 0.3 || ratio > 3 {
		t.Errorf("sim/hw ratio %.2f outside a plausible validation band", ratio)
	}
	if sim.Retired != hw.Retired {
		t.Errorf("retired counts differ: %d vs %d", sim.Retired, hw.Retired)
	}
	if hw.Mem.RowHits+hw.Mem.RowMisses == 0 {
		t.Error("hardware proxy recorded no DRAM row activity")
	}
}

// TestBackendForcesHighFidelity pins the fidelity contract: whatever the
// caller's config says, the proxy backend runs the High-fidelity model.
func TestBackendForcesHighFidelity(t *testing.T) {
	cfg := BaselineSim() // Basic fidelity on purpose
	b, err := NewBackend(cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Config().Fidelity; got != sstmem.High {
		t.Fatalf("proxy backend fidelity %v, want High", got)
	}
}

// simulate runs w on a fresh core over mem.
func simulate(t *testing.T, cfg params.Config, mem simeng.MemoryBackend, w workload.Workload) simeng.Stats {
	t.Helper()
	p, err := w.Program(cfg.Core.VectorLength)
	if err != nil {
		t.Fatal(err)
	}
	st, err := simeng.Simulate(cfg.Core, mem, p.Stream())
	if err != nil {
		t.Fatal(err)
	}
	return st
}
