package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if m := Mean([]float64{2, 4, 4, 4, 5, 5, 7, 9}); m != 5 {
		t.Errorf("mean = %g", m)
	}
	if Mean(nil) != 0 {
		t.Error("empty input not safe")
	}
}

func TestWithinPct(t *testing.T) {
	truth := []float64{100, 100, 100, 100}
	pred := []float64{100, 101, 110, 160}
	got, err := WithinPct(pred, truth, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 50 { // 100 and 101 are within 5%
		t.Errorf("WithinPct(5) = %g, want 50", got)
	}
	got, _ = WithinPct(pred, truth, 25)
	if got != 75 {
		t.Errorf("WithinPct(25) = %g, want 75", got)
	}
	if _, err := WithinPct([]float64{1}, []float64{1, 2}, 5); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := WithinPct(nil, nil, 5); err == nil {
		t.Error("empty accepted")
	}
	// Zero truth: only an exactly-zero prediction counts.
	got, _ = WithinPct([]float64{0, 1}, []float64{0, 0}, 50)
	if got != 50 {
		t.Errorf("zero-truth handling = %g", got)
	}
}

func TestConfidenceCurveMonotone(t *testing.T) {
	// Property: the curve is non-decreasing in the threshold.
	f := func(seed int64) bool {
		pred := make([]float64, 50)
		truth := make([]float64, 50)
		s := seed
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(uint64(s)>>11) / (1 << 53)
		}
		for i := range pred {
			truth[i] = 100 + 100*next()
			pred[i] = truth[i] * (0.5 + next())
		}
		curve, err := ConfidenceCurve(pred, truth, Fig2Intervals)
		if err != nil {
			return false
		}
		for i := 1; i < len(curve); i++ {
			if curve[i] < curve[i-1] {
				return false
			}
		}
		return curve[len(curve)-1] <= 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMeanAccuracyPct(t *testing.T) {
	truth := []float64{100, 200}
	pred := []float64{90, 220} // 10% and 10% off
	got, err := MeanAccuracyPct(pred, truth)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-90) > 1e-9 {
		t.Errorf("accuracy = %g, want 90", got)
	}
	if _, err := MeanAccuracyPct([]float64{1}, []float64{0}); err == nil {
		t.Error("all-zero truth accepted")
	}
	if _, err := MeanAccuracyPct([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestSpeedupCurve(t *testing.T) {
	got, err := SpeedupCurve([]float64{1000, 500, 250})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("speedups = %v", got)
		}
	}
	if _, err := SpeedupCurve(nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := SpeedupCurve([]float64{0, 1}); err == nil {
		t.Error("zero baseline accepted")
	}
	if _, err := SpeedupCurve([]float64{10, 0}); err == nil {
		t.Error("zero element accepted")
	}
}

func TestPctDifference(t *testing.T) {
	if got := PctDifference(110, 100); math.Abs(got-10) > 1e-9 {
		t.Errorf("PctDifference = %g", got)
	}
	if got := PctDifference(90, 100); math.Abs(got-10) > 1e-9 {
		t.Errorf("PctDifference = %g", got)
	}
	if !math.IsInf(PctDifference(1, 0), 1) {
		t.Error("zero base not infinite")
	}
}
