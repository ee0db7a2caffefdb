package experiments

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"armdse/internal/workload"
)

// fastOpt returns options small enough for unit tests: a tiny workload
// suite and a tiny dataset.
func fastOpt() Options {
	// Seed 5 gives >= 20 rows at both the 128 and 2048 vector-length
	// levels under the indexed per-config derivation, which Fig4/Fig5
	// require.
	return Options{
		Samples: 120,
		Seed:    5,
		Suite: []workload.Workload{
			workload.NewSTREAM(workload.STREAMInputs{ArraySize: 1024, Times: 1}),
			workload.NewMiniBUDE(workload.MiniBUDEInputs{Atoms: 8, Poses: 32, Iterations: 1, Repeats: 1}),
			workload.NewTeaLeaf(workload.TeaLeafInputs{NX: 8, NY: 8, Steps: 1, CGIters: 2, Dt: 0.004}),
			workload.NewMiniSweep(workload.MiniSweepInputs{NX: 2, NY: 2, NZ: 2, Angles: 4, Groups: 1, Sweeps: 1}),
		},
	}
}

// sharedData collects one dataset for all dataset-driven subtests.
var sharedData = struct {
	opt  Options
	once bool
}{}

func withData(t *testing.T) Options {
	t.Helper()
	if !sharedData.once {
		opt := fastOpt()
		data, err := CollectData(context.Background(), opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Data = data
		sharedData.opt = opt
		sharedData.once = true
	}
	return sharedData.opt
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 12 {
		t.Fatalf("experiments = %d, want 12", len(all))
	}
	seen := map[string]bool{}
	for _, r := range all {
		if r.ID == "" || r.Title == "" || r.Run == nil {
			t.Errorf("incomplete runner %+v", r)
		}
		if seen[r.ID] {
			t.Errorf("duplicate id %s", r.ID)
		}
		seen[r.ID] = true
		got, err := ByID(r.ID)
		if err != nil || got.ID != r.ID {
			t.Errorf("ByID(%s) = %v, %v", r.ID, got.ID, err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestFig1(t *testing.T) {
	res, err := Fig1(context.Background(), fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "fig1" || len(res.Tables) != 1 {
		t.Fatalf("result shape: %+v", res)
	}
	tbl := res.Tables[0]
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// STREAM row heavily vectorised, TeaLeaf row nearly scalar.
	streamPct := parseF(t, tbl.Rows[0][1])
	teaPct := parseF(t, tbl.Rows[2][1])
	if streamPct < 30 {
		t.Errorf("STREAM vectorisation %.1f%%", streamPct)
	}
	if teaPct > 10 {
		t.Errorf("TeaLeaf vectorisation %.1f%%", teaPct)
	}
	if !strings.Contains(res.String(), "fig1") {
		t.Error("String() missing id")
	}
}

// TestTable1 pins the eight cycle counts of Table I on the fastOpt suite, so
// a change to how the two baselines are simulated must leave the table
// byte-identical.
func TestTable1(t *testing.T) {
	res, err := Table1(context.Background(), fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Tables[0]
	want := [][3]string{
		{"STREAM", "7035", "6204"},
		{"miniBUDE", "2218", "2218"},
		{"TeaLeaf", "2935", "3152"},
		{"MiniSweep", "2164", "2447"},
	}
	if len(tbl.Rows) != len(want) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for i, row := range tbl.Rows {
		if got := [3]string{row[0], row[1], row[2]}; got != want[i] {
			t.Errorf("row %d: (app, simulated, hardware) = %v, want %v", i, got, want[i])
		}
		sim := parseF(t, row[1])
		hw := parseF(t, row[2])
		// Same magnitude: within 3x of each other.
		if r := sim / hw; r < 0.33 || r > 3 {
			t.Errorf("%s: sim/hw ratio %.2f out of band", row[0], r)
		}
	}
}

func TestSpaceTables(t *testing.T) {
	ctx := context.Background()
	t2, err := Table2(ctx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Tables[0].Rows) != 18 {
		t.Errorf("table2 rows = %d, want 18", len(t2.Tables[0].Rows))
	}
	t3, err := Table3(ctx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Tables[0].Rows) != 12 {
		t.Errorf("table3 rows = %d, want 12", len(t3.Tables[0].Rows))
	}
	t4, err := Table4(ctx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(t4.Tables[0].Rows) < 12 {
		t.Errorf("table4 rows = %d", len(t4.Tables[0].Rows))
	}
	if !strings.Contains(t2.Tables[0].String(), "Vector-Length") {
		t.Error("table2 missing Vector-Length")
	}
	if !strings.Contains(t3.Tables[0].String(), "L2-Size") {
		t.Error("table3 missing L2-Size")
	}
}

func TestFig2(t *testing.T) {
	opt := withData(t)
	res, err := Fig2(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Tables[0]
	if len(tbl.Rows) != 5 { // 4 apps + MEAN
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows[:4] {
		// Confidence columns are monotone non-decreasing.
		prev := -1.0
		for _, cell := range row[1 : len(row)-1] {
			v := parseF(t, cell)
			if v < prev {
				t.Errorf("%s: confidence curve not monotone: %v", row[0], row)
				break
			}
			prev = v
		}
	}
}

func TestFig3ImportanceShapes(t *testing.T) {
	opt := withData(t)
	res, err := Fig3(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 4 {
		t.Fatalf("tables = %d", len(res.Tables))
	}
	// miniBUDE's top importance should be Vector-Length (the paper's
	// strongest, most robust finding).
	bude := res.Tables[1]
	if bude.Title != "miniBUDE" {
		t.Fatalf("table order: %s", bude.Title)
	}
	if got := bude.Rows[0][1]; got != "Vector-Length" {
		t.Errorf("miniBUDE top importance = %s, want Vector-Length", got)
	}
	// Each table shows at most 10 rows.
	for _, tbl := range res.Tables {
		if len(tbl.Rows) > 10 {
			t.Errorf("%s shows %d rows", tbl.Title, len(tbl.Rows))
		}
	}
}

func TestFig4AndFig5(t *testing.T) {
	opt := withData(t)
	res4, err := Fig4(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	res5, err := Fig5(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	// Vector length is constant in the filtered data, so it cannot rank.
	for _, res := range []Result{res4, res5} {
		for _, tbl := range res.Tables {
			for _, row := range tbl.Rows {
				if row[1] == "Vector-Length" && parseF(t, row[2]) != 0 {
					t.Errorf("%s/%s: constant Vector-Length has importance %s", res.ID, tbl.Title, row[2])
				}
			}
		}
	}
}

func TestFig4TooFewRows(t *testing.T) {
	opt := fastOpt()
	opt.Samples = 30 // ~6 rows per VL level: below the threshold
	opt.Data = nil
	if _, err := Fig4(context.Background(), opt); err == nil {
		t.Error("sparse VL filter accepted")
	}
}

func TestSpeedupSweeps(t *testing.T) {
	opt := fastOpt()
	opt.Samples = 20 // triggers the small sweep count
	ctx := context.Background()

	res6, err := Fig6(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	tbl := res6.Tables[0]
	if len(tbl.Rows) != len(Fig6VLs) {
		t.Fatalf("fig6 rows = %d", len(tbl.Rows))
	}
	// Vectorised apps speed up with VL; scalar apps stay near 1x.
	last := tbl.Rows[len(tbl.Rows)-1]
	if v := parseX(t, last[2]); v < 2 { // miniBUDE column
		t.Errorf("miniBUDE VL speedup = %.2f, want >= 2", v)
	}
	if v := parseX(t, last[4]); v > 1.5 { // MiniSweep column
		t.Errorf("MiniSweep VL speedup = %.2f, want ~1", v)
	}

	res7, err := Fig7(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	rows := res7.Tables[0].Rows
	// ROB speedups are ~monotone and saturate: last two rows close.
	for col := 1; col <= 4; col++ {
		lo := parseX(t, rows[0][col])
		hi := parseX(t, rows[len(rows)-1][col])
		if hi < lo {
			t.Errorf("fig7 col %d decreasing", col)
		}
		a := parseX(t, rows[len(rows)-2][col])
		b := parseX(t, rows[len(rows)-1][col])
		if b > a*1.25 {
			t.Errorf("fig7 col %d not saturating: %.2f -> %.2f", col, a, b)
		}
	}

	res8, err := Fig8(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	rows = res8.Tables[0].Rows
	if len(rows) != len(Fig8FPRegs) {
		t.Fatalf("fig8 rows = %d", len(rows))
	}
	for col := 1; col <= 4; col++ {
		a := parseX(t, rows[len(rows)-2][col])
		b := parseX(t, rows[len(rows)-1][col])
		if b > a*1.25 {
			t.Errorf("fig8 col %d not saturating: %.2f -> %.2f", col, a, b)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := fastOpt()
	if _, err := Fig1(ctx, opt); err == nil {
		t.Error("fig1 ignored cancellation")
	}
	if _, err := Table1(ctx, opt); err == nil {
		t.Error("table1 ignored cancellation")
	}
	if _, err := Fig6(ctx, opt); err == nil {
		t.Error("fig6 ignored cancellation")
	}
	opt2 := withData(t)
	if _, err := Fig3(ctx, opt2); err == nil {
		t.Error("fig3 ignored cancellation")
	}
}

// brokenWorkload is a workload whose program never builds.
type brokenWorkload struct{ workload.Workload }

func (brokenWorkload) Name() string { return "Broken" }

func (brokenWorkload) Program(int) (*workload.Program, error) {
	return nil, errors.New("program build failed")
}

// TestSweepFailingProgramReturns pins that a speedup sweep whose runs fail
// on every worker returns the failure, naming the workload, instead of
// blocking.
func TestSweepFailingProgramReturns(t *testing.T) {
	opt := fastOpt()
	opt.Samples = 20
	opt.Workers = 2
	opt.Suite = []workload.Workload{opt.Suite[0], brokenWorkload{opt.Suite[0]}}
	errc := make(chan error, 1)
	go func() {
		_, err := Fig7(context.Background(), opt)
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "Broken") {
			t.Fatalf("Fig7 = %v, want an error naming Broken", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Fig7 did not return within 20s")
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parsing %q: %v", s, err)
	}
	return v
}

func parseX(t *testing.T, s string) float64 {
	t.Helper()
	return parseF(t, strings.TrimSuffix(s, "x"))
}
