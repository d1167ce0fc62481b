package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Tests for the blocked Householder kernel (qr.go): it must agree with the
// pre-blocking reference kernel below to factorization accuracy.

// householderRef is the historical Householder kernel: a Hypot chain per
// column norm and column-at-a-time reflector application through the
// bounds-checked accessors, on a row-major copy. Its arithmetic is kept
// verbatim as the oracle of the blocked kernel (householder).
func householderRef(qr *Matrix, rdia []float64) {
	m, n := qr.rows, qr.cols
	for k := 0; k < n; k++ {
		// Householder vector for column k.
		var nrm float64
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, qr.At(i, k))
		}
		if nrm != 0 {
			if qr.At(k, k) < 0 {
				nrm = -nrm
			}
			for i := k; i < m; i++ {
				qr.Set(i, k, qr.At(i, k)/nrm)
			}
			qr.Set(k, k, qr.At(k, k)+1)
			// Apply the reflector to remaining columns.
			for j := k + 1; j < n; j++ {
				var s float64
				for i := k; i < m; i++ {
					s += qr.At(i, k) * qr.At(i, j)
				}
				s = -s / qr.At(k, k)
				for i := k; i < m; i++ {
					qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
				}
			}
		}
		rdia[k] = -nrm
	}
}

// leastSquaresRef solves min‖A·x − b‖₂ with the reference Householder
// kernel. Solve-phase arithmetic (Qᵀ·b application, back substitution) is
// shared with the production path — the row-major reference factors are
// transposed into its column-major layout — so only the factorization
// kernel differs.
func leastSquaresRef(a *Matrix, b []float64) ([]float64, error) {
	m, n := a.Rows(), a.Cols()
	if m < n {
		return nil, fmt.Errorf("linalg: QR requires rows >= cols, got %dx%d", m, n)
	}
	if len(b) != m {
		return nil, fmt.Errorf("linalg: QR solve rhs length %d, want %d", len(b), m)
	}
	qr := a.Clone()
	rdia := make([]float64, n)
	householderRef(qr, rdia)
	if !fullRank(rdia) {
		return nil, ErrRankDeficient
	}
	// Transpose the row-major factors into the shared column-major solve.
	f := &QR{m: m, n: n, data: make([]float64, m*n), rdia: rdia}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			f.data[j*m+i] = qr.data[i*n+j]
		}
	}
	x := make([]float64, n)
	qrSolveInto(f, x, make([]float64, m), b)
	return x, nil
}

// nnlsRef is the Lawson–Hanson iteration with every passive-set solve
// routed through the reference QR kernel (copyColumns + leastSquaresRef).
// The active-set logic itself is shared with the production NNLS.
func nnlsRef(a *Matrix, b []float64) ([]float64, error) {
	return nnls(a, b, func(a *Matrix, b []float64, passive []bool) ([]float64, error) {
		n := a.Cols()
		var idx []int
		for j := 0; j < n; j++ {
			if passive[j] {
				idx = append(idx, j)
			}
		}
		z := make([]float64, n)
		if len(idx) == 0 {
			return z, nil
		}
		zs, err := leastSquaresRef(a.copyColumns(idx), b)
		if err != nil {
			return nil, err
		}
		for k, j := range idx {
			z[j] = zs[k]
		}
		return z, nil
	})
}

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

		want, err := leastSquaresRef(a, b)
		if err != nil {
			t.Fatalf("trial %d: leastSquaresRef: %v", trial, err)
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

		want, err := nnlsRef(a, b)
		if err != nil {
			t.Fatalf("trial %d: nnlsRef: %v", trial, err)
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
