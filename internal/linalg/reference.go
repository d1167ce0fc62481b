package linalg

import (
	"fmt"
	"math"
)

// This file preserves the pre-blocking least-squares arithmetic as a living
// reference implementation. It is the measured baseline of the estimate-fit
// speedup rows (internal/experiments/speedup.go) and the accuracy oracle the
// kernel tests compare the blocked path against, so regressions in the fast
// path are caught against real, runnable history — not against a remembered
// number. Nothing on the production fit path calls into this file.

// householderRef is the historical Householder kernel: a Hypot chain per
// column norm and column-at-a-time reflector application through the
// bounds-checked accessors. Arithmetic is preserved verbatim; only the new
// blocked kernel (householder) replaced it on the hot path.
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

// LeastSquaresRef solves min‖A·x − b‖₂ with the reference Householder
// kernel. Solve-phase arithmetic (Qᵀ·b application, back substitution) is
// shared with the production path — the row-major reference factors are
// transposed into its column-major layout — so only the factorization
// kernel differs.
func LeastSquaresRef(a *Matrix, b []float64) ([]float64, error) {
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

// NNLSRef is the Lawson–Hanson iteration with every passive-set solve routed
// through the reference QR kernel (gather-by-CopyColumns + LeastSquaresRef).
// The active-set logic itself is shared with the production NNLS.
func NNLSRef(a *Matrix, b []float64) ([]float64, error) {
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
		zs, err := LeastSquaresRef(a.CopyColumns(idx), b)
		if err != nil {
			return nil, err
		}
		for k, j := range idx {
			z[j] = zs[k]
		}
		return z, nil
	})
}
