package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMAPE(t *testing.T) {
	v, err := MAPE([]float64{110, 90}, []float64{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if !eq(v, 10, 1e-12) {
		t.Fatalf("MAPE = %g, want 10", v)
	}
	// Zero measurements are skipped.
	v, err = MAPE([]float64{110, 5}, []float64{100, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !eq(v, 10, 1e-12) {
		t.Fatalf("MAPE with zero = %g, want 10", v)
	}
	if _, err := MAPE([]float64{1}, []float64{0}); err == nil {
		t.Fatal("all-zero measurements accepted")
	}
}

func TestMeanPercentErrorSigned(t *testing.T) {
	v, err := MeanPercentError([]float64{110, 90}, []float64{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if !eq(v, 0, 1e-12) {
		t.Fatalf("signed error = %g, want 0", v)
	}
	v, _ = MeanPercentError([]float64{120}, []float64{100})
	if !eq(v, 20, 1e-12) {
		t.Fatalf("signed error = %g, want +20", v)
	}
}

func TestMeanMedian(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
	if Median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd Median wrong")
	}
	if Median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even Median wrong")
	}
	// Median must not mutate input.
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 {
		t.Fatal("Median mutated input")
	}
}

func TestStdDev(t *testing.T) {
	if StdDev([]float64{5}) != 0 {
		t.Fatal("single-sample stddev should be 0")
	}
	if !eq(StdDev([]float64{2, 4}), math.Sqrt(2), 1e-12) {
		t.Fatalf("StdDev = %g", StdDev([]float64{2, 4}))
	}
}

func TestMinMax(t *testing.T) {
	if Max([]float64{1, 9, 3}) != 9 || Min([]float64{4, 1, 6}) != 1 {
		t.Fatal("Min/Max wrong")
	}
}

// Property: median lies within [min, max] and at least half the points are
// on each side.
func TestMedianProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 || len(raw) > 40 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e150 {
				return true
			}
		}
		m := Median(raw)
		if m < Min(raw) || m > Max(raw) {
			return false
		}
		lo, hi := 0, 0
		for _, v := range raw {
			if v <= m {
				lo++
			}
			if v >= m {
				hi++
			}
		}
		return lo*2 >= len(raw) && hi*2 >= len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func eq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
