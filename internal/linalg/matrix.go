// Package linalg provides the small dense linear-algebra kernel used by the
// DVFS-aware power model estimator: dense matrices, Householder QR, ordinary
// and non-negative least squares, isotonic regression and the compiled
// quartic minimizer of the per-configuration voltage step.
//
// It is deliberately self-contained (stdlib only) and tuned for the modest
// problem sizes of the model-fitting pipeline (at most a few thousand rows
// by about a dozen columns; the GTX Titan X fit's step-3 NNLS is 512 × 11),
// not for BLAS-scale workloads.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero-initialized rows×cols matrix.
// It panics if either dimension is not positive.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewMatrixFromRows builds a matrix from row slices. All rows must have the
// same length.
func NewMatrixFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("linalg: empty row data")
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("linalg: ragged rows: row %d has %d entries, want %d", i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Reshape repoints m at a rows×cols view, reusing the backing array when it
// has the capacity and reallocating otherwise. Element contents after a
// Reshape are unspecified — it exists for reusable workspaces (fleet fitting
// refits many device models through one buffer set) whose assembly loops
// overwrite every entry before it is read. It panics on non-positive
// dimensions, like NewMatrix.
func (m *Matrix) Reshape(rows, cols int) {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid matrix dimensions %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.data) < n {
		m.data = make([]float64, n)
	}
	m.data = m.data[:n]
	m.rows, m.cols = rows, cols
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		//gpower:allocs panic path: an out-of-bounds index is a caller bug, mirroring the runtime's own bounds check
		panic(fmt.Sprintf("linalg: index (%d,%d) out of bounds for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// RowView returns row i as a slice sharing the matrix's storage: writes
// through the slice mutate the matrix. It exists for allocation-free
// assembly loops (the estimator's incremental design-matrix fill) that
// would otherwise pay a scratch-row copy per row; callers must not retain
// the slice past the matrix's lifetime.
func (m *Matrix) RowView(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of bounds for %dx%d matrix", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// SetRow copies r into row i.
func (m *Matrix) SetRow(i int, r []float64) {
	if len(r) != m.cols {
		panic(fmt.Sprintf("linalg: SetRow length %d, want %d", len(r), m.cols))
	}
	copy(m.data[i*m.cols:(i+1)*m.cols], r)
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// MulVec returns the matrix-vector product m·x.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	out := make([]float64, m.rows)
	if err := m.MulVecInto(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// MulVecInto computes m·x into dst (len Rows), reusing the caller's buffer
// so iterative solvers allocate nothing per iteration.
func (m *Matrix) MulVecInto(dst, x []float64) error {
	if m.cols != len(x) {
		//gpower:allocs validation error path: a dimension mismatch never reaches the kernel
		return fmt.Errorf("linalg: MulVec dimension mismatch %dx%d · %d", m.rows, m.cols, len(x))
	}
	if len(dst) != m.rows {
		//gpower:allocs validation error path: a mis-sized dst never reaches the kernel
		return fmt.Errorf("linalg: MulVec dst length %d, want %d", len(dst), m.rows)
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
	return nil
}

// TMulVec returns the transpose product Aᵀ·y without materializing Aᵀ.
// This is the gradient kernel of the NNLS active-set loop (w = Aᵀ·resid).
func (m *Matrix) TMulVec(y []float64) ([]float64, error) {
	out := make([]float64, m.cols)
	if err := m.TMulVecInto(out, y); err != nil {
		return nil, err
	}
	return out, nil
}

// TMulVecInto computes Aᵀ·y into dst (len Cols), reusing the caller's
// buffer so iterative solvers allocate nothing per iteration.
func (m *Matrix) TMulVecInto(dst, y []float64) error {
	if len(y) != m.rows {
		//gpower:allocs validation error path: a dimension mismatch never reaches the kernel
		return fmt.Errorf("linalg: TMulVec dimension mismatch %dx%d · %d", m.rows, m.cols, len(y))
	}
	if len(dst) != m.cols {
		//gpower:allocs validation error path: a mis-sized dst never reaches the kernel
		return fmt.Errorf("linalg: TMulVec dst length %d, want %d", len(dst), m.cols)
	}
	for j := 0; j < m.cols; j++ {
		var s float64
		for i := 0; i < m.rows; i++ {
			s += m.data[i*m.cols+j] * y[i]
		}
		dst[j] = s
	}
	return nil
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		sb.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteString(" ")
			}
			fmt.Fprintf(&sb, "%.6g", m.data[i*m.cols+j])
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}

// MaxAbs returns the largest absolute entry of the matrix.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}
