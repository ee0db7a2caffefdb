package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestExtensionsRegistry(t *testing.T) {
	exts := Extensions()
	if len(exts) != 6 {
		t.Fatalf("extensions = %d, want 6", len(exts))
	}
	all := AllWithExtensions()
	if len(all) != 18 {
		t.Fatalf("all+ext = %d, want 18", len(all))
	}
	for _, e := range exts {
		if !strings.HasPrefix(e.ID, "ext") {
			t.Errorf("extension id %q lacks ext prefix", e.ID)
		}
		r, err := ByID(e.ID)
		if err != nil || r.ID != e.ID {
			t.Errorf("ByID(%s) = %v, %v", e.ID, r.ID, err)
		}
	}
}

func TestExtPorts(t *testing.T) {
	opt := fastOpt()
	res, err := ExtPorts(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The paper-layout row is normalised to 1.00 everywhere.
	for _, row := range rows {
		if row[0] == "2V/3M" {
			for _, cell := range row[1:] {
				if cell != "1.00" {
					t.Errorf("baseline row not normalised: %v", row)
				}
			}
		}
	}
	// miniBUDE (col 2) must be slower with one SVE port than with four.
	var oneV, fourV float64
	for _, row := range rows {
		switch row[0] {
		case "1V/3M":
			oneV = parseF(t, row[2])
		case "4V/3M":
			fourV = parseF(t, row[2])
		}
	}
	if oneV <= fourV {
		t.Errorf("miniBUDE: 1 SVE port (%.2f) not slower than 4 (%.2f)", oneV, fourV)
	}
}

func TestExtUnified(t *testing.T) {
	opt := withData(t)
	res, err := ExtUnified(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		perLeaves := parseF(t, row[3])
		uniLeaves := parseF(t, row[4])
		if uniLeaves <= perLeaves {
			t.Errorf("%s: unified tree (%g leaves) not larger than per-app (%g)", row[0], uniLeaves, perLeaves)
		}
	}
}

func TestExtPrefetch(t *testing.T) {
	opt := fastOpt()
	res, err := ExtPrefetch(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		slow := parseX(t, row[3])
		if slow < 0.9 {
			t.Errorf("%s: disabling prefetch sped things up (%.2fx)", row[0], slow)
		}
	}
	// STREAM must be the biggest loser (the memory-bound streaming code).
	stream := parseX(t, rows[0][3])
	bude := parseX(t, rows[1][3])
	if stream <= bude {
		t.Errorf("prefetch ablation: STREAM (%.2fx) not above miniBUDE (%.2fx)", stream, bude)
	}
}

func TestExtensionsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExtPorts(ctx, fastOpt()); err == nil {
		t.Error("extports ignored cancellation")
	}
	if _, err := ExtPrefetch(ctx, fastOpt()); err == nil {
		t.Error("extprefetch ignored cancellation")
	}
}

func TestExtForest(t *testing.T) {
	opt := withData(t)
	res, err := ExtForest(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if len(row) != 5 {
			t.Fatalf("row shape: %v", row)
		}
	}
}

func TestExtStalls(t *testing.T) {
	opt := withData(t)
	res, err := ExtStalls(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 2 {
		t.Fatalf("tables = %d, want 2 (baseline + surrogates)", len(res.Tables))
	}
	base := res.Tables[0]
	// One row per stall class, one column per app; each app's shares sum
	// to ~100%.
	if len(base.Rows) != 11 {
		t.Fatalf("baseline rows = %d, want 11 stall classes", len(base.Rows))
	}
	for col := 1; col < len(base.Columns); col++ {
		var sum float64
		for _, row := range base.Rows {
			sum += parseF(t, strings.TrimSuffix(row[col], "%"))
		}
		if sum < 99.5 || sum > 100.5 {
			t.Errorf("%s shares sum to %.2f%%", base.Columns[col], sum)
		}
	}
	surro := res.Tables[1]
	if len(surro.Rows) != 4 {
		t.Fatalf("surrogate rows = %d, want 4 apps", len(surro.Rows))
	}
	for _, row := range surro.Rows {
		if row[1] == "busy" {
			t.Errorf("%s: dominant stall class is busy", row[0])
		}
		if row[3] == "" {
			t.Errorf("%s: no importance ranking", row[0])
		}
	}
}

func TestExtStallsV1DataSkipsSurrogates(t *testing.T) {
	opt := withData(t)
	// Strip the aux columns, as a dataset loaded from a pre-stall CSV
	// would be.
	v1 := *opt.Data
	v1.AuxNames = nil
	v1.Aux = nil
	opt.Data = &v1
	res, err := ExtStalls(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 1 {
		t.Fatalf("tables = %d, want baseline only", len(res.Tables))
	}
}

func TestExtMulticore(t *testing.T) {
	opt := fastOpt()
	res, err := ExtMulticore(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// miniBUDE (col 2, compute bound) must out-scale STREAM (col 1,
	// memory bound) at 32 cores.
	last := rows[len(rows)-1]
	stream := parseX(t, last[1])
	bude := parseX(t, last[2])
	if bude <= stream {
		t.Errorf("at 32 cores miniBUDE (%.1fx) should out-scale STREAM (%.1fx)", bude, stream)
	}
	// Compute-bound scaling is near-linear.
	if bude < 16 {
		t.Errorf("miniBUDE scaling at 32 cores = %.1fx, want near-linear", bude)
	}
}
