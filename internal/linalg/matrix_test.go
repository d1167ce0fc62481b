package linalg

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("dims = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) = %g, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewMatrixPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 2}, {2, -3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMatrix(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			NewMatrix(dims[0], dims[1])
		}()
	}
}

func TestNewMatrixFromRows(t *testing.T) {
	m, err := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Fatalf("unexpected contents: %v", m)
	}
	if _, err := NewMatrixFromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged rows accepted")
	}
	if _, err := NewMatrixFromRows(nil); err == nil {
		t.Fatal("empty rows accepted")
	}
}

func TestSetAtRowCol(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("Set/At mismatch")
	}
	m.SetRow(0, []float64{1, 2, 3})
	r := m.RowView(0)
	if r[0] != 1 || r[2] != 3 {
		t.Fatalf("RowView = %v", r)
	}
	// RowView shares the matrix's storage.
	r[0] = 99
	if m.At(0, 0) != 99 {
		t.Fatal("RowView did not write through")
	}
	c := m.Col(2)
	if c[0] != 3 || c[1] != 7 {
		t.Fatalf("Col = %v", c)
	}
}

func TestMulVec(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	y, err := a.MulVec([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVec = %v", y)
	}
	if _, err := a.MulVec([]float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

// Property: matrix-vector multiplication is linear: A(x+y) = Ax + Ay.
func TestMulVecLinearity(t *testing.T) {
	f := func(vals [6]float64, x, y [3]float64) bool {
		m, _ := NewMatrixFromRows([][]float64{vals[:3], vals[3:]})
		for i := range vals {
			if math.IsNaN(vals[i]) || math.IsInf(vals[i], 0) {
				return true
			}
		}
		for i := 0; i < 3; i++ {
			if math.IsNaN(x[i]) || math.IsInf(x[i], 0) || math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
				return true
			}
			// Keep magnitudes sane to avoid float cancellation dominating.
			if math.Abs(x[i]) > 1e6 || math.Abs(y[i]) > 1e6 {
				return true
			}
		}
		for i := range vals {
			if math.Abs(vals[i]) > 1e6 {
				return true
			}
		}
		sum := []float64{x[0] + y[0], x[1] + y[1], x[2] + y[2]}
		axy, _ := m.MulVec(sum)
		ax, _ := m.MulVec(x[:])
		ay, _ := m.MulVec(y[:])
		for i := range axy {
			if !almostEq(axy[i], ax[i]+ay[i], 1e-6*(1+math.Abs(axy[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxAbs(t *testing.T) {
	m, _ := NewMatrixFromRows([][]float64{{1, -7}, {3, 4}})
	if m.MaxAbs() != 7 {
		t.Fatalf("MaxAbs = %g, want 7", m.MaxAbs())
	}
}

func TestTMulVecMatchesExplicitTranspose(t *testing.T) {
	m, _ := NewMatrixFromRows([][]float64{
		{1, 2, 3},
		{4, 5, 6},
	})
	y := []float64{10, 100}
	got, err := m.TMulVec(y)
	if err != nil {
		t.Fatal(err)
	}
	// Aᵀ built entry by entry, then multiplied the ordinary way.
	mt := NewMatrix(m.Cols(), m.Rows())
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			mt.Set(j, i, m.At(i, j))
		}
	}
	want, err := mt.MulVec(y)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("TMulVec = %v, Aᵀ·y = %v", got, want)
		}
	}
	if _, err := m.TMulVec([]float64{1}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if err := m.TMulVecInto(make([]float64, 2), y); err == nil {
		t.Fatal("bad dst length accepted")
	}
}

func TestCopyColumns(t *testing.T) {
	m, _ := NewMatrixFromRows([][]float64{
		{1, 2, 3},
		{4, 5, 6},
	})
	sub := m.copyColumns([]int{2, 0})
	if sub.Rows() != 2 || sub.Cols() != 2 {
		t.Fatalf("shape %dx%d", sub.Rows(), sub.Cols())
	}
	want := [][]float64{{3, 1}, {6, 4}}
	for i := range want {
		for j := range want[i] {
			if sub.At(i, j) != want[i][j] {
				t.Fatalf("copyColumns = %v", sub)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range column accepted")
		}
	}()
	m.copyColumns([]int{3})
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: col %d out of bounds for %dx%d matrix", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}
