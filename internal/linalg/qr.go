package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrRankDeficient is returned when a least-squares system does not have a
// unique solution at working precision.
var ErrRankDeficient = errors.New("linalg: rank-deficient system")

// QR holds a Householder QR factorization of an m×n matrix (m ≥ n):
// A = Q·R with Q orthogonal (stored implicitly as Householder reflectors)
// and R upper triangular. The factors are stored column by column: column j
// is data[j*m : (j+1)*m], holding R's entries above the diagonal and the
// reflector from the diagonal down, so every kernel pass reads and writes
// contiguous runs of memory. R's diagonal is kept apart in rdia.
type QR struct {
	m, n int
	data []float64 // column-major packed reflectors and R
	rdia []float64 // diagonal of R
}

// qrRowBlock is the fixed row-block length of the Householder kernel's
// vᵀ·A pass: each block of qrRowBlock rows, counted from the diagonal, is
// summed on its own and the block sums are folded in block order. The
// blocks depend on the matrix shape alone, and this association is what
// the committed golden models pin, so it must not change.
const qrRowBlock = 256

// colNorm2 computes the Euclidean norm of v with one scaled sum-of-squares
// pass (overflow-safe like a Hypot chain, but one division per element and
// a single Sqrt instead of a libcall per element).
func colNorm2(v []float64) float64 {
	var mx float64
	for _, x := range v {
		if a := math.Abs(x); a > mx {
			mx = a
		}
	}
	if mx == 0 {
		return 0
	}
	var ss float64
	for _, x := range v {
		x /= mx
		ss += x * x
	}
	return mx * math.Sqrt(ss)
}

// applyReflector applies the column-k Householder reflector v (rows
// [k, m) of column k, pivot first) to each trailing column c in two passes:
//
//	pass 1:  w = Σ_i v_i·c_i   (per-block partials, folded in block order)
//	pass 2:  c_i += s·v_i      (s = −w/v_k)
//
// Up to four trailing columns share one pass over v, each with its own
// accumulator, so every column's sum is the same sequence of operations as
// a column-at-a-time loop.
func applyReflector(f *QR, k int) {
	m, n := f.m, f.n
	v := f.data[k*m+k : (k+1)*m]
	j := k + 1
	for ; j+4 <= n; j += 4 {
		reflect4(v,
			f.data[j*m+k:(j+1)*m],
			f.data[(j+1)*m+k:(j+2)*m],
			f.data[(j+2)*m+k:(j+3)*m],
			f.data[(j+3)*m+k:(j+4)*m])
	}
	for ; j < n; j++ {
		reflect1(v, f.data[j*m+k:(j+1)*m])
	}
}

// reflect1 applies the reflector v to one column c (len(c) == len(v)).
func reflect1(v, c []float64) {
	c = c[:len(v)]
	var w float64
	for lo := 0; lo < len(v); lo += qrRowBlock {
		hi := min(lo+qrRowBlock, len(v))
		vb, cb := v[lo:hi], c[lo:hi]
		var p float64
		for i, vi := range vb {
			p += vi * cb[i]
		}
		w += p
	}
	s := -w / v[0]
	for i, vi := range v {
		c[i] += s * vi
	}
}

// reflect4 is reflect1 on four columns at once.
func reflect4(v, c0, c1, c2, c3 []float64) {
	c0, c1, c2, c3 = c0[:len(v)], c1[:len(v)], c2[:len(v)], c3[:len(v)]
	var w0, w1, w2, w3 float64
	for lo := 0; lo < len(v); lo += qrRowBlock {
		hi := min(lo+qrRowBlock, len(v))
		vb := v[lo:hi]
		b0, b1, b2, b3 := c0[lo:hi], c1[lo:hi], c2[lo:hi], c3[lo:hi]
		var p0, p1, p2, p3 float64
		for i, vi := range vb {
			p0 += vi * b0[i]
			p1 += vi * b1[i]
			p2 += vi * b2[i]
			p3 += vi * b3[i]
		}
		w0 += p0
		w1 += p1
		w2 += p2
		w3 += p3
	}
	pivot := v[0]
	s0, s1, s2, s3 := -w0/pivot, -w1/pivot, -w2/pivot, -w3/pivot
	for i, vi := range v {
		c0[i] += s0 * vi
		c1[i] += s1 * vi
		c2[i] += s2 * vi
		c3[i] += s3 * vi
	}
}

// householder factorizes f in place: each column's reflector from the
// diagonal down, R above the diagonal, R's diagonal in rdia. It is the single
// shared kernel behind NewQR, QRWorkspace.Factorize and the NNLS passive
// solves, so every path is arithmetically — and therefore bitwise —
// identical. The historical Hypot-chain kernel survives in blocked_test.go
// as the oracle of TestBlockedQRMatchesReferenceKernel.
func householder(f *QR) {
	m, n := f.m, f.n
	for k := 0; k < n; k++ {
		// Householder vector for column k: its tail from the diagonal.
		v := f.data[k*m+k : (k+1)*m]
		nrm := colNorm2(v)
		if nrm != 0 {
			if v[0] < 0 {
				nrm = -nrm
			}
			for i := range v {
				v[i] /= nrm
			}
			v[0]++
			applyReflector(f, k)
		}
		f.rdia[k] = -nrm
	}
}

// fullRank reports whether rdia has no (near-)zero entries relative to the
// largest one.
func fullRank(rdia []float64) bool {
	var mx float64
	for _, d := range rdia {
		if a := math.Abs(d); a > mx {
			mx = a
		}
	}
	if mx == 0 {
		return false
	}
	const relTol = 1e-12
	for _, d := range rdia {
		if math.Abs(d) <= relTol*mx {
			return false
		}
	}
	return true
}

// applyQT overwrites y (len m) with Qᵀ·y, one contiguous reflector column
// at a time. A zero reflector (a column that was already zero from the
// diagonal down) is skipped, as householder skipped it.
func applyQT(f *QR, y []float64) {
	m, n := f.m, f.n
	for k := 0; k < n; k++ {
		v := f.data[k*m+k : (k+1)*m]
		if v[0] == 0 {
			continue
		}
		yk := y[k:m]
		var s float64
		for i, vi := range v {
			s += vi * yk[i]
		}
		s = -s / v[0]
		for i, vi := range v {
			yk[i] += s * vi
		}
	}
}

// qrSolveInto solves the factored least-squares system into dst (len n),
// using y (len m) as scratch for the Qᵀ·b application. It performs no
// allocation; rank checking is the caller's responsibility.
func qrSolveInto(f *QR, dst, y, b []float64) {
	m, n := f.m, f.n
	copy(y, b)
	applyQT(f, y)
	// Back substitution R·x = y; R's row k is entry k of each later column.
	for k := n - 1; k >= 0; k-- {
		s := y[k]
		for j := k + 1; j < n; j++ {
			s -= f.data[j*m+k] * dst[j]
		}
		dst[k] = s / f.rdia[k]
	}
}

// NewQR computes the QR factorization of a. It requires Rows ≥ Cols.
func NewQR(a *Matrix) (*QR, error) {
	m, n := a.Rows(), a.Cols()
	if m < n {
		return nil, fmt.Errorf("linalg: QR requires rows >= cols, got %dx%d", m, n)
	}
	w := NewQRWorkspace(m, n)
	if err := w.Factorize(a); err != nil {
		return nil, err
	}
	return &w.qr, nil
}

// FullRank reports whether R has no (near-)zero diagonal entries relative to
// the largest one.
func (f *QR) FullRank() bool { return fullRank(f.rdia) }

// Solve returns x minimizing ‖A·x − b‖₂. It returns ErrRankDeficient when A
// is numerically rank-deficient.
func (f *QR) Solve(b []float64) ([]float64, error) {
	if len(b) != f.m {
		return nil, fmt.Errorf("linalg: QR solve rhs length %d, want %d", len(b), f.m)
	}
	if !f.FullRank() {
		return nil, ErrRankDeficient
	}
	x := make([]float64, f.n)
	qrSolveInto(f, x, make([]float64, f.m), b)
	return x, nil
}

// QRWorkspace is a preallocated Householder QR factorization buffer: one
// allocation up front (sized for the largest system the caller will solve),
// zero allocations per Factorize/SolveInto afterwards. It is the inner
// kernel of the estimator's iterative refits (DESIGN.md §10), where the
// same-shaped system is solved hundreds of times per fit.
//
// A workspace is single-goroutine state: confine each instance to one
// worker (see parallel.PerWorker) or guard it externally.
type QRWorkspace struct {
	maxRows, maxCols int
	qrData           []float64
	rdia             []float64
	y                []float64
	cols             []int // source columns of the current factorization

	qr       QR // current factorization view over qrData
	factored bool
}

// NewQRWorkspace preallocates a workspace able to factorize any matrix with
// rows ≤ maxRows and cols ≤ maxCols (rows ≥ cols still required per solve).
func NewQRWorkspace(maxRows, maxCols int) *QRWorkspace {
	if maxRows <= 0 || maxCols <= 0 || maxRows < maxCols {
		panic(fmt.Sprintf("linalg: invalid QR workspace capacity %dx%d", maxRows, maxCols))
	}
	return &QRWorkspace{
		maxRows: maxRows,
		maxCols: maxCols,
		qrData:  make([]float64, maxRows*maxCols),
		rdia:    make([]float64, maxCols),
		y:       make([]float64, maxRows),
		cols:    make([]int, maxCols),
	}
}

// Factorize copies a into the workspace and factorizes it in place. The
// arithmetic is byte-for-byte the NewQR kernel; only the storage is reused.
//
//gpower:noalloc in-capacity factorizations run entirely on preallocated workspace storage
func (w *QRWorkspace) Factorize(a *Matrix) error {
	m, n := a.Rows(), a.Cols()
	if m < n {
		//gpower:allocs validation error path: a malformed shape never reaches the kernel
		return fmt.Errorf("linalg: QR requires rows >= cols, got %dx%d", m, n)
	}
	if m > w.maxRows || n > w.maxCols {
		//gpower:allocs validation error path: an over-capacity matrix never reaches the kernel
		return fmt.Errorf("linalg: %dx%d exceeds QR workspace capacity %dx%d", m, n, w.maxRows, w.maxCols)
	}
	cols := w.cols[:n]
	for j := range cols {
		cols[j] = j
	}
	return w.factorizeColumns(a, cols)
}

// factorizeColumns gathers the listed columns of the row-major a, in the
// order given, straight into the column-major factor storage and
// factorizes them in place. It is the one copy loop behind Factorize (all
// columns) and the NNLS passive solves (the passive columns, ascending). A
// column list longer than a's row count has no full-rank factorization and
// returns ErrRankDeficient. The caller guarantees capacity:
// rows·len(cols) ≤ maxRows·maxCols and len(cols) ≤ maxCols.
func (w *QRWorkspace) factorizeColumns(a *Matrix, cols []int) error {
	m, k := a.rows, len(cols)
	if m < k {
		return ErrRankDeficient
	}
	w.qr = QR{m: m, n: k, data: w.qrData[:m*k], rdia: w.rdia[:k]}
	for p, j := range cols {
		col := w.qr.data[p*m : (p+1)*m]
		for i := range col {
			col[i] = a.data[i*a.cols+j]
		}
	}
	householder(&w.qr)
	w.factored = true
	return nil
}

// FullRank reports whether the last factorized matrix has full column rank
// at working precision.
func (w *QRWorkspace) FullRank() bool {
	return w.factored && w.qr.FullRank()
}

// SolveInto writes x minimizing ‖A·x − b‖₂ into dst (len Cols of the last
// Factorize), allocating nothing. It returns ErrRankDeficient when the
// factorized matrix is numerically rank-deficient.
//
//gpower:noalloc back-substitution on preallocated workspace storage
func (w *QRWorkspace) SolveInto(dst, b []float64) error {
	if !w.factored {
		//gpower:allocs validation error path: solving before Factorize is a caller bug
		return fmt.Errorf("linalg: QR workspace solve before Factorize")
	}
	m, n := w.qr.m, w.qr.n
	if len(b) != m {
		//gpower:allocs validation error path: a mis-sized rhs never reaches the kernel
		return fmt.Errorf("linalg: QR solve rhs length %d, want %d", len(b), m)
	}
	if len(dst) != n {
		//gpower:allocs validation error path: a mis-sized dst never reaches the kernel
		return fmt.Errorf("linalg: QR solve dst length %d, want %d", len(dst), n)
	}
	if !w.qr.FullRank() {
		return ErrRankDeficient
	}
	qrSolveInto(&w.qr, dst, w.y[:m], b)
	return nil
}

// ApplyQT overwrites y (len Rows of the last Factorize) with Qᵀ·y, the
// reflectors of SolveInto's first phase. With R it projects a system onto
// the column space of the factorized matrix: for A = Q·R, the first Cols
// entries of Qᵀ·b are R's right-hand side and the rest are b's component
// outside A's span.
func (w *QRWorkspace) ApplyQT(y []float64) error {
	if !w.factored {
		return fmt.Errorf("linalg: QR workspace ApplyQT before Factorize")
	}
	if len(y) != w.qr.m {
		return fmt.Errorf("linalg: ApplyQT length %d, want %d", len(y), w.qr.m)
	}
	applyQT(&w.qr, y)
	return nil
}

// R returns entry (i, j) of the last factorization's upper-triangular R
// (Cols × Cols): zero below the diagonal. Like Q·R = A it holds at any
// rank; a column that was zero from the diagonal down leaves a zero on R's
// diagonal.
func (w *QRWorkspace) R(i, j int) float64 {
	switch {
	case i > j:
		return 0
	case i == j:
		return w.qr.rdia[i]
	}
	return w.qr.data[j*w.qr.m+i]
}

// LeastSquares solves min_x ‖A·x − b‖₂ via QR.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	f, err := NewQR(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// RidgeLeastSquares solves the Tikhonov-regularized problem
// min_x ‖A·x − b‖² + λ‖x‖² by augmenting the system with √λ·I. It is used
// as a fallback when the plain system is rank-deficient (e.g. a
// microbenchmark set that never exercises one component).
func RidgeLeastSquares(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	if lambda < 0 {
		return nil, fmt.Errorf("linalg: negative ridge parameter %g", lambda)
	}
	m, n := a.Rows(), a.Cols()
	if len(b) != m {
		return nil, fmt.Errorf("linalg: rhs length %d, want %d", len(b), m)
	}
	aug := NewMatrix(m+n, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			aug.Set(i, j, a.At(i, j))
		}
	}
	sl := math.Sqrt(lambda)
	for j := 0; j < n; j++ {
		aug.Set(m+j, j, sl)
	}
	rhs := make([]float64, m+n)
	copy(rhs, b)
	return LeastSquares(aug, rhs)
}

// Residual returns b − A·x.
func Residual(a *Matrix, x, b []float64) ([]float64, error) {
	ax, err := a.MulVec(x)
	if err != nil {
		return nil, err
	}
	return Sub(b, ax), nil
}
