package experiments

import (
	"reflect"
	"testing"

	"armdse/internal/simeng"
	"armdse/internal/sstmem"
	"armdse/internal/workload"
)

// TestTable1Baselines pins Table I's pair: both configs valid, simulation at
// Basic fidelity, hardware at High, and nothing else different.
func TestTable1Baselines(t *testing.T) {
	cfgs := table1Configs()
	if len(cfgs) != 2 {
		t.Fatalf("%d Table I configs, want 2", len(cfgs))
	}
	sim, hw := cfgs[0], cfgs[1]
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Table I baseline invalid: %v", err)
		}
	}
	if sim.Mem.Fidelity != sstmem.Basic {
		t.Error("simulation baseline not Basic fidelity")
	}
	if hw.Mem.Fidelity != sstmem.High {
		t.Error("hardware baseline not High fidelity")
	}
	hw.Mem.Fidelity = sim.Mem.Fidelity
	if !reflect.DeepEqual(sim, hw) {
		t.Error("baselines differ beyond Mem.Fidelity; only the memory model should change")
	}
}

// TestSimVsHardwareDiverge: the two fidelities must produce different but
// same-magnitude cycle counts on the same retired work — the Table I
// property — and the High-fidelity run must exercise its DRAM row model.
func TestSimVsHardwareDiverge(t *testing.T) {
	w := workload.NewSTREAM(workload.STREAMInputs{ArraySize: 4096, Times: 1})
	cfgs := table1Configs()
	var st [2]simeng.Stats
	for i, cfg := range cfgs {
		p, err := w.Program(cfg.Core.VectorLength)
		if err != nil {
			t.Fatal(err)
		}
		mem, err := sstmem.New(cfg.Mem)
		if err != nil {
			t.Fatal(err)
		}
		if st[i], err = simeng.Simulate(cfg.Core, mem, p.Stream()); err != nil {
			t.Fatal(err)
		}
	}
	sim, hw := st[0], st[1]
	if sim.Cycles == hw.Cycles {
		t.Error("fidelities produced identical cycles; no divergence to validate")
	}
	if ratio := float64(sim.Cycles) / float64(hw.Cycles); ratio < 0.3 || ratio > 3 {
		t.Errorf("sim/hw ratio %.2f outside a plausible validation band", ratio)
	}
	if sim.Retired != hw.Retired {
		t.Errorf("retired counts differ: %d vs %d", sim.Retired, hw.Retired)
	}
	if hw.Mem.RowHits+hw.Mem.RowMisses == 0 {
		t.Error("hardware proxy recorded no DRAM row activity")
	}
	if sim.Mem.RowHits+sim.Mem.RowMisses != 0 {
		t.Error("Basic-fidelity run recorded DRAM row activity")
	}
}
