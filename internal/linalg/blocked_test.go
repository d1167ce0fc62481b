package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// Tests for the blocked Householder kernel (qr.go): it must agree with the
// preserved reference kernel (reference.go) to factorization accuracy.

// TestBlockedQRMatchesReferenceKernel compares the blocked kernel's
// least-squares solutions to the reference (Hypot-chain) kernel's. The two
// kernels order their floating-point operations differently, so bitwise
// equality is not expected — but on well-conditioned systems both compute
// the same QR factorization to close to machine precision.
func TestBlockedQRMatchesReferenceKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 5; trial++ {
		m := 512 + rng.Intn(4096)
		n := 2 + rng.Intn(10)
		a := NewMatrix(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}

		want, err := LeastSquaresRef(a, b)
		if err != nil {
			t.Fatalf("trial %d: LeastSquaresRef: %v", trial, err)
		}
		got, err := LeastSquares(a, b)
		if err != nil {
			t.Fatalf("trial %d: LeastSquares: %v", trial, err)
		}
		scale := 0.0
		for j := range want {
			scale = math.Max(scale, math.Abs(want[j]))
		}
		for j := range want {
			if diff := math.Abs(got[j] - want[j]); diff > 1e-10*(1+scale) {
				t.Fatalf("trial %d: x[%d] = %v, reference %v (diff %g)",
					trial, j, got[j], want[j], diff)
			}
		}
	}
}

// TestNNLSMatchesReferenceKernel does the same through the active-set loop:
// the passive-set trajectory must survive the kernel swap, so solutions
// agree to factorization accuracy (identical zero patterns, close values).
func TestNNLSMatchesReferenceKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 10; trial++ {
		m := 64 + rng.Intn(512)
		n := 2 + rng.Intn(10)
		a := NewMatrix(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}

		want, err := NNLSRef(a, b)
		if err != nil {
			t.Fatalf("trial %d: NNLSRef: %v", trial, err)
		}
		got, err := NNLS(a, b)
		if err != nil {
			t.Fatalf("trial %d: NNLS: %v", trial, err)
		}
		for j := range want {
			if (want[j] == 0) != (got[j] == 0) {
				t.Fatalf("trial %d: active-set mismatch at %d: %v vs reference %v",
					trial, j, got[j], want[j])
			}
			if diff := math.Abs(got[j] - want[j]); diff > 1e-9*(1+math.Abs(want[j])) {
				t.Fatalf("trial %d: x[%d] = %v, reference %v (diff %g)",
					trial, j, got[j], want[j], diff)
			}
		}
	}
}
