package linalg

import (
	"errors"
	"math"
	"testing"

	"gpupower/internal/stats"
)

// TestNNLSBlockedSetRecovery is the regression test for the permanent-block
// bug: a variable whose inclusion transiently made the passive set singular
// used to be excluded from the candidate picks forever, even after the
// passive set changed and the collinearity disappeared. The transient
// singularity is simulated with an injected passive solver that fails
// exactly once (the way a QR rank check fails on a momentarily collinear
// submatrix, e.g. the all-V̄≡1 step-1 design), because at working precision
// a genuinely singular pick also has a sub-tolerance gradient.
func TestNNLSBlockedSetRecovery(t *testing.T) {
	// Columns: c0 = e1, c1 = e2, c2 = (3, 0.1, 1); b = (1, 2, −0.5).
	// Initial gradients (Aᵀb): w0 = 1, w1 = 2, w2 = 2.7 → c2 enters first.
	// The next pick is c1, whose solve we fail once → c1 is blocked.
	// Then c0 enters and the {c0, c2} fit drives x2 negative → c2 is
	// clipped out, the passive set shrinks, and the fixed algorithm
	// re-enables c1, reaching the true optimum x* = (1, 2, 0). The pre-fix
	// algorithm terminated at x = (1, 0, 0) with the KKT conditions
	// violated (w1 = 2 > 0 on a clamped variable).
	a, err := NewMatrixFromRows([][]float64{
		{1, 0, 3},
		{0, 1, 0.1},
		{0, 0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2, -0.5}

	failed := false
	flaky := func(a *Matrix, rhs []float64, passive []bool) ([]float64, error) {
		if !failed && passive[1] {
			failed = true
			return nil, ErrRankDeficient
		}
		return solvePassive(a, rhs, passive)
	}

	x, err := nnls(a, b, flaky)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatal("injected singularity never triggered; the test no longer exercises the blocked path")
	}
	want := []float64{1, 2, 0}
	for j := range want {
		if math.Abs(x[j]-want[j]) > 1e-9 {
			t.Fatalf("x = %v, want %v (blocked variable 1 not recovered)", x, want)
		}
	}
	// KKT check: the recovered point must leave no clamped variable with a
	// positive gradient.
	resid, err := Residual(a, x, b)
	if err != nil {
		t.Fatal(err)
	}
	w, err := a.TMulVec(resid)
	if err != nil {
		t.Fatal(err)
	}
	for j := range w {
		if x[j] == 0 && w[j] > 1e-8 {
			t.Fatalf("KKT violated at clamped variable %d: gradient %g", j, w[j])
		}
	}
}

// TestNNLSPersistentSingularityStaysBlocked pins the other side of the
// recovery rule: when the singularity is not transient (every solve
// including the variable fails), NNLS must still terminate and return the
// best point available without it, not loop or error out.
func TestNNLSPersistentSingularityStaysBlocked(t *testing.T) {
	a, err := NewMatrixFromRows([][]float64{
		{1, 0, 3},
		{0, 1, 0.1},
		{0, 0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2, -0.5}
	alwaysFail := func(a *Matrix, rhs []float64, passive []bool) ([]float64, error) {
		if passive[1] {
			return nil, ErrRankDeficient
		}
		return solvePassive(a, rhs, passive)
	}
	x, err := nnls(a, b, alwaysFail)
	if err != nil {
		t.Fatal(err)
	}
	if x[1] != 0 {
		t.Fatalf("x1 = %g, want 0 when its solves always fail", x[1])
	}
	for j, v := range x {
		if v < 0 {
			t.Fatalf("x[%d] = %g < 0", j, v)
		}
	}
}

func TestNNLSMatchesOLSWhenInterior(t *testing.T) {
	// When the unconstrained optimum is strictly positive, NNLS must agree
	// with ordinary least squares.
	a, _ := NewMatrixFromRows([][]float64{
		{1, 0},
		{0, 1},
		{1, 1},
	})
	b := []float64{1, 2, 3.1}
	ols, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	nn, err := NNLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for j := range ols {
		if !almostEq(ols[j], nn[j], 1e-8) {
			t.Fatalf("NNLS %v != OLS %v", nn, ols)
		}
	}
}

func TestNNLSClampsNegative(t *testing.T) {
	// Fit y = -1·x with x ≥ 0 forced: the coefficient must clamp at 0.
	a, _ := NewMatrixFromRows([][]float64{{1}, {2}, {3}})
	x, err := NNLS(a, []float64{-1, -2, -3})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 0 {
		t.Fatalf("x = %v, want [0]", x)
	}
}

func TestNNLSNonNegativityProperty(t *testing.T) {
	rng := stats.NewRNG(11)
	for trial := 0; trial < 100; trial++ {
		m, n := 12, 5
		a := NewMatrix(m, n)
		b := make([]float64, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.Normal(0, 1))
			}
			b[i] = rng.Normal(0, 2)
		}
		x, err := NNLS(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range x {
			if v < 0 {
				t.Fatalf("trial %d: x[%d] = %g < 0", trial, j, v)
			}
		}
	}
}

// Property: the NNLS solution satisfies the KKT conditions — for passive
// variables the gradient of the residual is ~0; for clamped variables the
// gradient pushes toward negative values.
func TestNNLSKKT(t *testing.T) {
	rng := stats.NewRNG(23)
	for trial := 0; trial < 50; trial++ {
		m, n := 15, 4
		a := NewMatrix(m, n)
		b := make([]float64, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.Normal(0, 1))
			}
			b[i] = rng.Normal(0, 1)
		}
		x, err := NNLS(a, b)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Residual(a, x, b)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n; j++ {
			g := Dot(a.Col(j), r) // = -∂SSE/∂x_j / 2
			if x[j] > 1e-9 {
				if math.Abs(g) > 1e-6 {
					t.Fatalf("trial %d: passive var %d has gradient %g", trial, j, g)
				}
			} else if g > 1e-6 {
				t.Fatalf("trial %d: clamped var %d wants to grow (g=%g)", trial, j, g)
			}
		}
	}
}

func TestNNLSCollinearColumns(t *testing.T) {
	// Identical columns (the V̄≡1 static-split case): NNLS must return a
	// valid non-negative solution without hanging.
	a, _ := NewMatrixFromRows([][]float64{
		{1, 1, 2},
		{1, 1, 3},
		{1, 1, 4},
		{1, 1, 5},
	})
	b := []float64{10, 13, 16, 19}
	x, err := NNLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Perfect fit exists: x0+x1 = 4, x2 = 3.
	ax, _ := a.MulVec(x)
	for i := range b {
		if !almostEq(ax[i], b[i], 1e-6) {
			t.Fatalf("fit %v vs %v", ax, b)
		}
	}
	for _, v := range x {
		if v < 0 {
			t.Fatalf("negative component in %v", x)
		}
	}
}

func TestNNLSZeroInput(t *testing.T) {
	a := NewMatrix(3, 2)
	x, err := NNLS(a, []float64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 0 || x[1] != 0 {
		t.Fatalf("x = %v, want zeros", x)
	}
}

func TestNNLSRHSLengthMismatch(t *testing.T) {
	a := NewMatrix(3, 2)
	if _, err := NNLS(a, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// TestNNLSWideSystemRankSentinel covers a passive set with more columns
// than the system has rows. The passive solve returns the ErrRankDeficient
// sentinel, and a warm start seeded with such a set falls back to the cold
// iteration, which still fits b exactly (the rows are independent) and
// allocates nothing on the way.
func TestNNLSWideSystemRankSentinel(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{
		{1, 0, 1, 2},
		{0, 1, 1, 1},
	})
	b := []float64{3, 2}
	ws := NewNNLSWorkspace(2, 4)
	if err := ws.solvePassiveInto(a, b, []bool{true, true, true, false}); !errors.Is(err, ErrRankDeficient) {
		t.Fatalf("3 passive columns over 2 rows: err = %v, want ErrRankDeficient", err)
	}
	x := make([]float64, 4)
	solve := func() {
		copy(x, []float64{1, 1, 1, 0}) // a three-column seed: infeasible
		if err := ws.WarmSolveInto(x, a, b); err != nil {
			t.Fatal(err)
		}
	}
	solve()
	ax, _ := a.MulVec(x)
	for i := range b {
		if !almostEq(ax[i], b[i], 1e-9) {
			t.Fatalf("A·x = %v, want %v (x = %v)", ax, b, x)
		}
	}
	for _, v := range x {
		if v < 0 {
			t.Fatalf("negative component in %v", x)
		}
	}
	if allocs := testing.AllocsPerRun(20, solve); allocs != 0 {
		t.Fatalf("wide-seed WarmSolveInto allocates %.1f/op, want 0", allocs)
	}
}
