package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// The row-major Householder kernel the column-major one replaced, kept as
// the oracle of TestColumnMajorQRMatchesRowMajorBits. Each reflector sums
// vᵀ·A over qrRowBlock-row blocks starting at the diagonal and folds the
// block sums in block order; the column-major kernel must perform the same
// operations in the same order, column by column.

// colNorm2Rows is colNorm2 over column k of a row-major matrix.
func colNorm2Rows(qr *Matrix, k int) float64 {
	m, n := qr.rows, qr.cols
	var mx float64
	for i := k; i < m; i++ {
		if a := math.Abs(qr.data[i*n+k]); a > mx {
			mx = a
		}
	}
	if mx == 0 {
		return 0
	}
	var ss float64
	for i := k; i < m; i++ {
		v := qr.data[i*n+k] / mx
		ss += v * v
	}
	return mx * math.Sqrt(ss)
}

// applyReflectorRows applies the column-k reflector to the trailing columns
// with a two-pass row sweep; w and part need len ≥ cols.
func applyReflectorRows(qr *Matrix, k int, w, part []float64) {
	m, n := qr.rows, qr.cols
	if k+1 >= n {
		return
	}
	data := qr.data
	for j := k + 1; j < n; j++ {
		w[j] = 0
	}
	for lo := k; lo < m; lo += qrRowBlock {
		hi := min(lo+qrRowBlock, m)
		for j := k + 1; j < n; j++ {
			part[j] = 0
		}
		for i := lo; i < hi; i++ {
			row := data[i*n : (i+1)*n]
			vi := row[k]
			for j := k + 1; j < n; j++ {
				part[j] += vi * row[j]
			}
		}
		for j := k + 1; j < n; j++ {
			w[j] += part[j]
		}
	}
	pivot := data[k*n+k]
	for j := k + 1; j < n; j++ {
		w[j] = -w[j] / pivot
	}
	for i := k; i < m; i++ {
		row := data[i*n : (i+1)*n]
		vi := row[k]
		for j := k + 1; j < n; j++ {
			row[j] += w[j] * vi
		}
	}
}

// householderRows factorizes a row-major qr in place.
func householderRows(qr *Matrix, rdia []float64) {
	m, n := qr.rows, qr.cols
	data := qr.data
	w, part := make([]float64, n), make([]float64, n)
	for k := 0; k < n; k++ {
		nrm := colNorm2Rows(qr, k)
		if nrm != 0 {
			if data[k*n+k] < 0 {
				nrm = -nrm
			}
			for i := k; i < m; i++ {
				data[i*n+k] /= nrm
			}
			data[k*n+k]++
			applyReflectorRows(qr, k, w, part)
		}
		rdia[k] = -nrm
	}
}

// qrSolveRows solves a row-major factorization into dst.
func qrSolveRows(qr *Matrix, rdia, dst, y, b []float64) {
	m, n := qr.rows, qr.cols
	data := qr.data
	copy(y, b)
	for k := 0; k < n; k++ {
		if data[k*n+k] == 0 {
			continue
		}
		var s float64
		for i := k; i < m; i++ {
			s += data[i*n+k] * y[i]
		}
		s = -s / data[k*n+k]
		for i := k; i < m; i++ {
			y[i] += s * data[i*n+k]
		}
	}
	for k := n - 1; k >= 0; k-- {
		s := y[k]
		row := data[k*n : (k+1)*n]
		for j := k + 1; j < n; j++ {
			s -= row[j] * dst[j]
		}
		dst[k] = s / rdia[k]
	}
}

// oracleSystem is a random m×k system. Column zero is all zeros when
// zeroCol is set (the nrm == 0 branch of the kernel); the diagonal entries
// are forced negative on even trials so the sign-flipped pivot is covered.
func oracleSystem(rng *rand.Rand, m, k int, zeroCol, negPivots bool) (*Matrix, []float64) {
	a, b := randSystem(rng, m, k)
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			if zeroCol && j == k/2 {
				a.Set(i, j, 0)
			}
		}
	}
	if negPivots {
		for j := 0; j < k; j++ {
			if v := a.At(j, j); v > 0 {
				a.Set(j, j, -v)
			}
		}
	}
	return a, b
}

// TestColumnMajorQRMatchesRowMajorBits requires the column-major kernel to
// reproduce the row-major one bit for bit: the same R diagonal, the same
// packed factors (read through the layout), and the same solutions. The
// row counts straddle the 256-row block boundary and the column counts run
// through every remainder of the four-column grouping.
func TestColumnMajorQRMatchesRowMajorBits(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11} {
		for _, m := range []int{k, 37, 255, 256, 257, 512, 5312} {
			if m < k {
				continue
			}
			for trial := 0; trial < 3; trial++ {
				zeroCol := trial == 1
				a, b := oracleSystem(rng, m, k, zeroCol, trial != 1)

				rows := a.Clone()
				rdia := make([]float64, k)
				householderRows(rows, rdia)

				f, err := NewQR(a)
				if err != nil {
					t.Fatalf("m=%d k=%d: NewQR: %v", m, k, err)
				}
				for j := 0; j < k; j++ {
					if math.Float64bits(f.rdia[j]) != math.Float64bits(rdia[j]) {
						t.Fatalf("m=%d k=%d trial %d: rdia[%d] = %x, row-major %x",
							m, k, trial, j, f.rdia[j], rdia[j])
					}
				}
				for i := 0; i < m; i++ {
					for j := 0; j < k; j++ {
						got, want := f.data[j*m+i], rows.data[i*k+j]
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("m=%d k=%d trial %d: factor (%d,%d) = %x, row-major %x",
								m, k, trial, i, j, got, want)
						}
					}
				}
				if zeroCol {
					// A zero column is rank-deficient: the factors are the
					// whole contract, there is no solution to compare.
					continue
				}
				want := make([]float64, k)
				qrSolveRows(rows, rdia, want, make([]float64, m), b)
				got, err := f.Solve(b)
				if err != nil {
					t.Fatalf("m=%d k=%d: Solve: %v", m, k, err)
				}
				requireSameBits(t, "QR solve", got, want)
			}
		}
	}
}
