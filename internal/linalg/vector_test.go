package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Dot length mismatch did not panic")
			}
		}()
		Dot([]float64{1}, []float64{1, 2})
	}()
}

func TestNorm2(t *testing.T) {
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Fatal("Norm2 wrong")
	}
	if Norm2(nil) != 0 {
		t.Fatal("Norm2 of empty should be 0")
	}
	// Overflow guard: elements near MaxFloat64 must not overflow to Inf.
	big := math.MaxFloat64 / 4
	if math.IsInf(Norm2([]float64{big, big}), 1) {
		t.Fatal("Norm2 overflowed")
	}
}

func TestAxpyScaleSub(t *testing.T) {
	y := []float64{3.5, 5}
	d := Sub([]float64{5, 5}, y)
	if d[0] != 1.5 || d[1] != 0 {
		t.Fatalf("Sub = %v", d)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	if MaxAbsDiff([]float64{1, 2, 3}, []float64{1, 5, 2}) != 3 {
		t.Fatal("MaxAbsDiff wrong")
	}
}

// Property: ‖v‖² == v·v for moderate values.
func TestNormDotConsistency(t *testing.T) {
	f := func(v [5]float64) bool {
		for _, x := range v {
			if math.IsNaN(x) || math.Abs(x) > 1e6 {
				return true
			}
		}
		n := Norm2(v[:])
		return almostEq(n*n, Dot(v[:], v[:]), 1e-6*(1+n*n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
