package linalg

import (
	"math"
	"testing"

	"gpupower/internal/stats"
)

func TestLeastSquaresExact(t *testing.T) {
	// Square full-rank system: exact solution.
	a, _ := NewMatrixFromRows([][]float64{
		{2, 1},
		{1, 3},
	})
	x, err := LeastSquares(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 1, 1e-10) || !almostEq(x[1], 3, 1e-10) {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// y = 2 + 3t sampled with symmetric perturbation: regression recovers it.
	rows := [][]float64{}
	var b []float64
	for i := 0; i < 10; i++ {
		tt := float64(i)
		rows = append(rows, []float64{1, tt})
		noise := 0.0
		if i%2 == 0 {
			noise = 0.5
		} else {
			noise = -0.5
		}
		b = append(b, 2+3*tt+noise)
	}
	a, _ := NewMatrixFromRows(rows)
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 2.05, 0.2) || !almostEq(x[1], 3, 0.05) {
		t.Fatalf("x = %v, want approx [2 3]", x)
	}
}

func TestLeastSquaresRankDeficient(t *testing.T) {
	// Two identical columns.
	a, _ := NewMatrixFromRows([][]float64{
		{1, 1},
		{2, 2},
		{3, 3},
	})
	if _, err := LeastSquares(a, []float64{1, 2, 3}); err == nil {
		t.Fatal("rank-deficient system accepted")
	}
}

func TestQRRequiresTallMatrix(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1, 2, 3}})
	if _, err := NewQR(a); err == nil {
		t.Fatal("wide matrix accepted")
	}
}

func TestQRSolveWrongRHSLength(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1}, {2}})
	f, err := NewQR(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1, 2, 3}); err == nil {
		t.Fatal("wrong rhs length accepted")
	}
}

// Property: the least-squares residual is orthogonal to the column space.
func TestLeastSquaresNormalEquations(t *testing.T) {
	rng := stats.NewRNG(7)
	for trial := 0; trial < 50; trial++ {
		m, n := 8, 3
		a := NewMatrix(m, n)
		b := make([]float64, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.Normal(0, 1))
			}
			b[i] = rng.Normal(0, 1)
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Residual(a, x, b)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n; j++ {
			if d := math.Abs(Dot(a.Col(j), r)); d > 1e-8 {
				t.Fatalf("trial %d: residual not orthogonal to column %d: %g", trial, j, d)
			}
		}
	}
}

func TestRidgeLeastSquaresHandlesCollinear(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{
		{1, 1},
		{2, 2},
		{3, 3},
	})
	x, err := RidgeLeastSquares(a, []float64{2, 4, 6}, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	// Any split with x0+x1 ≈ 2 fits; ridge picks the symmetric one.
	if !almostEq(x[0]+x[1], 2, 1e-3) {
		t.Fatalf("x = %v, want x0+x1 ≈ 2", x)
	}
	if !almostEq(x[0], x[1], 1e-6) {
		t.Fatalf("ridge solution not symmetric: %v", x)
	}
}

func TestRidgeRejectsNegativeLambda(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{1}, {1}})
	if _, err := RidgeLeastSquares(a, []float64{1, 1}, -1); err == nil {
		t.Fatal("negative lambda accepted")
	}
}

// TestQRWorkspaceApplyQTAndR pins the projection accessors against the
// identity Qᵀ·A = [R; 0]: applying Qᵀ to each column of A must give R's
// column over its first Cols entries and zero below, at full rank, with a
// zero column (R keeps a zero diagonal entry) and for a square A.
func TestQRWorkspaceApplyQTAndR(t *testing.T) {
	w := NewQRWorkspace(83, 8)
	y := make([]float64, 84)
	if err := w.ApplyQT(y); err == nil {
		t.Fatal("ApplyQT before Factorize accepted")
	}
	rng := stats.NewRNG(4)
	for _, tc := range []struct {
		m, n, zeroCol int // zeroCol < 0: none
	}{{83, 8, -1}, {83, 8, 3}, {8, 8, -1}, {37, 5, 0}} {
		a := NewMatrix(tc.m, tc.n)
		for i := 0; i < tc.m; i++ {
			for j := 0; j < tc.n; j++ {
				if j != tc.zeroCol {
					a.Set(i, j, rng.Float64())
				}
			}
		}
		if err := w.Factorize(a); err != nil {
			t.Fatal(err)
		}
		if err := w.ApplyQT(y[:tc.m+1]); err == nil {
			t.Fatalf("%dx%d: ApplyQT of length %d accepted", tc.m, tc.n, tc.m+1)
		}
		for j := 0; j < tc.n; j++ {
			col := a.Col(j)
			if err := w.ApplyQT(col); err != nil {
				t.Fatal(err)
			}
			for i, v := range col {
				want := 0.0
				if i < tc.n {
					want = w.R(i, j)
				}
				if math.Abs(v-want) > 1e-12*float64(tc.m) {
					t.Fatalf("%dx%d (zero column %d): (Qᵀ·A)[%d][%d] = %g, R gives %g",
						tc.m, tc.n, tc.zeroCol, i, j, v, want)
				}
			}
		}
		if tc.zeroCol >= 0 && w.R(tc.zeroCol, tc.zeroCol) != 0 {
			t.Fatalf("%dx%d: R[%d][%d] = %g for a zero column, want 0",
				tc.m, tc.n, tc.zeroCol, tc.zeroCol, w.R(tc.zeroCol, tc.zeroCol))
		}
	}
}

// Residual returns b − A·x.
func Residual(a *Matrix, x, b []float64) ([]float64, error) {
	ax, err := a.MulVec(x)
	if err != nil {
		return nil, err
	}
	return Sub(b, ax), nil
}
