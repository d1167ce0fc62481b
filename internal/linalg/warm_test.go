package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// complementarySystem builds a full-rank m×n NNLS problem with a known,
// strictly complementary solution: x* > 0 on a random support, and a KKT
// gradient Aᵀ(b − A·x*) that is zero on the support and at most −1 off it.
// b = A·(x* + y) with AᵀA·y = g, so Aᵀ(b − A·x*) = g exactly. The problem
// is strictly convex, so x* is the unique optimum and its support the one
// passive set a correct Lawson–Hanson run can end on.
func complementarySystem(t *testing.T, rng *rand.Rand, m, n int) (a *Matrix, b []float64, support []bool) {
	t.Helper()
	a, _ = randSystem(rng, m, n)
	support = make([]bool, n)
	xs := make([]float64, n)
	g := make([]float64, n)
	on, off := rng.Intn(n), rng.Intn(n-1) // at least one column each way
	if off >= on {
		off++
	}
	for j := range support {
		support[j] = j == on || (j != off && rng.Intn(3) > 0)
		if support[j] {
			xs[j] = 0.5 + rng.Float64()
		} else {
			g[j] = -(1 + 2*rng.Float64())
		}
	}
	ata := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for r := 0; r < m; r++ {
				s += a.At(r, i) * a.At(r, j)
			}
			ata.Set(i, j, s)
		}
	}
	y, err := LeastSquares(ata, g)
	if err != nil {
		t.Fatalf("normal equations: %v", err)
	}
	for j := range y {
		y[j] += xs[j]
	}
	b, err = a.MulVec(y)
	if err != nil {
		t.Fatal(err)
	}
	return a, b, support
}

// requireSameBits fails unless got and want are bitwise-equal.
func requireSameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: x[%d] = %x, want %x (not bitwise equal)\ngot  %v\nwant %v",
				label, j, math.Float64bits(got[j]), math.Float64bits(want[j]), got, want)
		}
	}
}

// TestWarmSolveIntoMatchesColdBits pins the warm start's contract on
// problems with a unique, strictly complementary solution: whatever the
// seed — empty, the exact support, a subset, a superset, an infeasible set
// or junk — WarmSolveInto returns SolveInto's bits, because every path
// ends on the same passive set and solves it with the same QR.
func TestWarmSolveIntoMatchesColdBits(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		m, n := 20+rng.Intn(60), 3+rng.Intn(9)
		a, b, support := complementarySystem(t, rng, m, n)
		ws := NewNNLSWorkspace(m, n)
		cold := make([]float64, n)
		if err := ws.SolveInto(cold, a, b); err != nil {
			t.Fatal(err)
		}
		for j := range support {
			if (cold[j] > 0) != support[j] {
				t.Fatalf("trial %d: cold support %v, constructed %v", trial, cold, support)
			}
		}
		if ols, err := LeastSquares(a, b); err != nil || allPositive(ols) {
			t.Fatalf("trial %d: unconstrained optimum %v (err %v) should be infeasible", trial, ols, err)
		}

		seed := func(in func(j int) bool, v float64) []float64 {
			x := make([]float64, n)
			for j := range x {
				if in(j) {
					x[j] = v
				}
			}
			return x
		}
		first := func(want bool) int {
			for j, s := range support {
				if s == want {
					return j
				}
			}
			return -1
		}
		inSupport := func(j int) bool { return support[j] }
		drop, add := first(true), first(false)
		seeds := []struct {
			name string
			x    []float64
		}{
			{"empty", make([]float64, n)},
			{"exact", append([]float64(nil), cold...)},
			{"exact support, unit values", seed(inSupport, 1)},
			{"subset", seed(func(j int) bool { return support[j] && j != drop }, 1)},
			{"superset", seed(func(j int) bool { return support[j] || j == add }, 1)},
			{"infeasible (every column)", seed(func(int) bool { return true }, 1)},
			{"junk off the support", func() []float64 {
				x := seed(inSupport, 2)
				for j := range x {
					if !support[j] {
						x[j] = []float64{-3, math.NaN(), 0}[j%3]
					}
				}
				return x
			}()},
		}
		for _, s := range seeds {
			if err := ws.WarmSolveInto(s.x, a, b); err != nil {
				t.Fatalf("trial %d, %s seed: %v", trial, s.name, err)
			}
			requireSameBits(t, s.name+" seed", s.x, cold)
		}
	}
}

func allPositive(x []float64) bool {
	for _, v := range x {
		if v <= 0 {
			return false
		}
	}
	return true
}

// TestWarmSolveIntoRankDeficientSeed seeds a passive set whose columns are
// collinear: the system duplicates an inactive column, so the optimum is
// still unique, but the seeded submatrix is singular. The warm start must
// fall back to the cold iteration and return its bits.
func TestWarmSolveIntoRankDeficientSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		m, n := 20+rng.Intn(40), 3+rng.Intn(7)
		base, b, support := complementarySystem(t, rng, m, n)
		dup := 0
		for support[dup] {
			dup++
		}
		a := NewMatrix(m, n+1)
		for i := 0; i < m; i++ {
			copy(a.RowView(i), base.RowView(i))
			a.Set(i, n, base.At(i, dup))
		}
		ws := NewNNLSWorkspace(m, n+1)
		cold := make([]float64, n+1)
		if err := ws.SolveInto(cold, a, b); err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n+1)
		for j := range x {
			x[j] = 1 // every column, both copies of the duplicate included
		}
		passive := make([]bool, n+1)
		for j := range passive {
			passive[j] = true
		}
		if _, err := solvePassive(a, b, passive); !errors.Is(err, ErrRankDeficient) {
			t.Fatalf("trial %d: seeded set solve err = %v, want ErrRankDeficient", trial, err)
		}
		if err := ws.WarmSolveInto(x, a, b); err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, "rank-deficient seed", x, cold)
	}
}

// TestWarmSolveIntoZeroOptimum seeds a problem whose optimum is x = 0
// (every column has a negative gradient at the origin) with an infeasible
// set: the cold fallback never frees a variable, so it must have zeroed
// the seed itself.
func TestWarmSolveIntoZeroOptimum(t *testing.T) {
	a, err := NewMatrixFromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{-1, -1, -1}
	x := []float64{1, 1}
	ws := NewNNLSWorkspace(3, 2)
	if err := ws.WarmSolveInto(x, a, b); err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "zero optimum", x, []float64{0, 0})
}

// TestWarmSolveIntoSavesSolves counts passive solves: from the exact
// support the warm start needs one, while SolveInto ignores whatever dst
// holds and repeats the cold solve's full count.
func TestWarmSolveIntoSavesSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, b, _ := complementarySystem(t, rng, 60, 11)
	var solves int
	ws := NewNNLSWorkspace(60, 11)
	ws.testSolve = func(a *Matrix, b []float64, passive []bool) ([]float64, error) {
		solves++
		return solvePassive(a, b, passive)
	}

	cold := make([]float64, 11)
	if err := ws.SolveInto(cold, a, b); err != nil {
		t.Fatal(err)
	}
	coldSolves := solves
	if coldSolves < 2 {
		t.Fatalf("cold solve took %d passive solves; the system is too easy to show a saving", coldSolves)
	}

	solves = 0
	warm := append([]float64(nil), cold...)
	if err := ws.WarmSolveInto(warm, a, b); err != nil {
		t.Fatal(err)
	}
	if solves != 1 {
		t.Errorf("warm start from the exact support took %d passive solves, want 1", solves)
	}
	requireSameBits(t, "warm", warm, cold)

	for _, fill := range []float64{0, 1, -1, math.NaN()} {
		solves = 0
		x := append([]float64(nil), cold...)
		for j := range x {
			if x[j] == 0 {
				x[j] = fill
			}
		}
		if err := ws.SolveInto(x, a, b); err != nil {
			t.Fatal(err)
		}
		if solves != coldSolves {
			t.Errorf("SolveInto over a seeded dst (fill %v) took %d passive solves, want the cold %d", fill, solves, coldSolves)
		}
		requireSameBits(t, "SolveInto over a seeded dst", x, cold)
	}
}

// TestNNLSWarmSolveAllocFree pins WarmSolveInto at zero steady-state
// allocations, both on a feasible warm start and on the cold fallback.
func TestNNLSWarmSolveAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := randSystem(rng, 60, 11)
	ws := NewNNLSWorkspace(60, 11)
	x := make([]float64, 11)
	if err := ws.SolveInto(x, a, b); err != nil {
		t.Fatalf("warm-up SolveInto: %v", err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := ws.WarmSolveInto(x, a, b); err != nil {
			t.Fatalf("WarmSolveInto: %v", err)
		}
		for j := range x {
			x[j] = 1 // infeasible seed: exercises the cold fallback next
		}
		if err := ws.WarmSolveInto(x, a, b); err != nil {
			t.Fatalf("WarmSolveInto (fallback): %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("NNLSWorkspace.WarmSolveInto allocates %.1f/op in steady state, want 0", allocs)
	}
}
