package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// step2Problem is a synthetic instance of the step-2 objective
// Σ_b (D_b − β0·vc − A_b·fc·vc² − β2·vm − B_b·fm·vm²)², the sum of squares
// the compiled Quartic2D expands into 13 monomial coefficients.
type step2Problem struct {
	beta0, beta2, fc, fm float64
	A, B, D              []float64
}

func randStep2(rng *rand.Rand, nb int) step2Problem {
	p := step2Problem{
		beta0: 20 + 30*rng.Float64(),
		beta2: 5 + 10*rng.Float64(),
		fc:    0.5 + rng.Float64(),
		fm:    0.5 + rng.Float64(),
		A:     make([]float64, nb),
		B:     make([]float64, nb),
		D:     make([]float64, nb),
	}
	for b := 0; b < nb; b++ {
		p.A[b] = 10 + 40*rng.Float64()
		p.B[b] = 2 + 10*rng.Float64()
		// Targets near the model at (vc, vm) ≈ (1, 1) plus noise, so the
		// minimum sits inside the voltage box like a real step-2 solve.
		p.D[b] = p.beta0 + p.fc*p.A[b] + p.beta2 + p.fm*p.B[b] + rng.NormFloat64()
	}
	return p
}

// direct evaluates the objective the pre-compilation way: one O(nb) loop.
func (p step2Problem) direct(vc, vm float64) float64 {
	var s float64
	for b := range p.D {
		pred := p.beta0*vc + vc*vc*p.fc*p.A[b] + p.beta2*vm + vm*vm*p.fm*p.B[b]
		diff := p.D[b] - pred
		s += diff * diff
	}
	return s
}

// compile expands the problem into monomial coefficients with the same
// moment algebra solveVoltages uses.
func (p step2Problem) compile() Quartic2D {
	var sumA, sumB, sumA2, sumB2, sumAB float64
	var sumD, sumD2, sumDA, sumDB float64
	for b := range p.D {
		sumA += p.A[b]
		sumB += p.B[b]
		sumA2 += p.A[b] * p.A[b]
		sumB2 += p.B[b] * p.B[b]
		sumAB += p.A[b] * p.B[b]
		sumD += p.D[b]
		sumD2 += p.D[b] * p.D[b]
		sumDA += p.D[b] * p.A[b]
		sumDB += p.D[b] * p.B[b]
	}
	nbf := float64(len(p.D))
	return Quartic2D{
		C00: sumD2,
		C10: -2 * p.beta0 * sumD,
		C20: nbf*p.beta0*p.beta0 - 2*p.fc*sumDA,
		C30: 2 * p.beta0 * p.fc * sumA,
		C40: p.fc * p.fc * sumA2,
		C01: -2 * p.beta2 * sumD,
		C02: nbf*p.beta2*p.beta2 - 2*p.fm*sumDB,
		C03: 2 * p.beta2 * p.fm * sumB,
		C04: p.fm * p.fm * sumB2,
		C11: 2 * nbf * p.beta0 * p.beta2,
		C12: 2 * p.beta0 * p.fm * sumB,
		C21: 2 * p.beta2 * p.fc * sumA,
		C22: 2 * p.fc * p.fm * sumAB,
	}
}

// TestQuartic2DEvalMatchesDirect checks the monomial expansion against the
// direct sum of squares across the voltage box. The two forms order their
// floating-point work differently, so agreement is relative, not bitwise.
func TestQuartic2DEvalMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		p := randStep2(rng, 8+rng.Intn(80))
		q := p.compile()
		for i := 0; i < 50; i++ {
			vc := 0.5 + rng.Float64()
			vm := 0.5 + rng.Float64()
			want := p.direct(vc, vm)
			got := q.Eval(vc, vm)
			if diff := math.Abs(got - want); diff > 1e-8*(1+math.Abs(want)) {
				t.Fatalf("trial %d: Eval(%v, %v) = %v, direct %v (diff %g)",
					trial, vc, vm, got, want, diff)
			}
		}
	}
}

// The golden-section coordinate descent below is the step-2 minimizer that
// Minimize's Newton method replaced, kept as its oracle: sweeps of one
// golden-section line search along x at fixed y and one along y at fixed
// x, each refined by one parabolic step, from the box centre.

// atX is Eval(x, y) for a search along x: y's square y2 and its one-axis
// sum sy come from the caller, computed once per search with Eval's
// expressions, and the rest is Eval's arithmetic in Eval's order.
func (q *Quartic2D) atX(x, y, y2, sy float64) float64 {
	x2 := x * x
	sx := q.C00 + q.C10*x + q.C20*x2 + q.C30*x2*x + q.C40*x2*x2
	sxy := q.C11*x*y + q.C12*x*y2 + q.C21*x2*y + q.C22*x2*y2
	return sx + sy + sxy
}

// atY is Eval(x, y) for a search along y, with x2 and sx from the caller.
func (q *Quartic2D) atY(y, x, x2, sx float64) float64 {
	y2 := y * y
	sy := q.C01*y + q.C02*y2 + q.C03*y2*y + q.C04*y2*y2
	sxy := q.C11*x*y + q.C12*x*y2 + q.C21*x2*y + q.C22*x2*y2
	return sx + sy + sxy
}

// minimizeX is a golden-section search along x at fixed y, refined with
// one parabolic step.
func (q *Quartic2D) minimizeX(y, lo, hi, tol float64) float64 {
	y2 := y * y
	sy := q.C01*y + q.C02*y2 + q.C03*y2*y + q.C04*y2*y2
	const invPhi = 0.6180339887498949 // 1/φ
	a, b := lo, hi
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	fc, fd := q.atX(c, y, y2, sy), q.atX(d, y, y2, sy)
	for b-a > tol {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - (b-a)*invPhi
			fc = q.atX(c, y, y2, sy)
		} else {
			a, c, fc = c, d, fd
			d = a + (b-a)*invPhi
			fd = q.atX(d, y, y2, sy)
		}
	}
	x := (a + b) / 2
	// One parabolic refinement through (a, mid, b) if it stays in range.
	m := x
	fa, fm, fb := q.atX(a, y, y2, sy), q.atX(m, y, y2, sy), q.atX(b, y, y2, sy)
	den := (a-m)*(fm-fb) - (m-b)*(fa-fm)
	if den != 0 {
		num := (a-m)*(a-m)*(fm-fb) - (m-b)*(m-b)*(fa-fm)
		cand := m - 0.5*num/den
		if cand > lo && cand < hi && !math.IsNaN(cand) && q.atX(cand, y, y2, sy) < fm {
			x = cand
		}
	}
	return x
}

// minimizeY is minimizeX along y at fixed x, with x's terms computed once.
func (q *Quartic2D) minimizeY(x, lo, hi, tol float64) float64 {
	x2 := x * x
	sx := q.C00 + q.C10*x + q.C20*x2 + q.C30*x2*x + q.C40*x2*x2
	const invPhi = 0.6180339887498949 // 1/φ
	a, b := lo, hi
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	fc, fd := q.atY(c, x, x2, sx), q.atY(d, x, x2, sx)
	for b-a > tol {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - (b-a)*invPhi
			fc = q.atY(c, x, x2, sx)
		} else {
			a, c, fc = c, d, fd
			d = a + (b-a)*invPhi
			fd = q.atY(d, x, x2, sx)
		}
	}
	y := (a + b) / 2
	m := y
	fa, fm, fb := q.atY(a, x, x2, sx), q.atY(m, x, x2, sx), q.atY(b, x, x2, sx)
	den := (a-m)*(fm-fb) - (m-b)*(fa-fm)
	if den != 0 {
		num := (a-m)*(a-m)*(fm-fb) - (m-b)*(m-b)*(fa-fm)
		cand := m - 0.5*num/den
		if cand > lo && cand < hi && !math.IsNaN(cand) && q.atY(cand, x, x2, sx) < fm {
			y = cand
		}
	}
	return y
}

// goldenMinimize is the coordinate-descent loop over minimizeX and
// minimizeY: at most 60 sweeps, stopping when a sweep moves neither
// coordinate by tol.
func (q *Quartic2D) goldenMinimize(xlo, xhi, ylo, yhi, tol float64) (float64, float64) {
	x := (xlo + xhi) / 2
	y := (ylo + yhi) / 2
	const maxSweeps = 60
	for sweep := 0; sweep < maxSweeps; sweep++ {
		px, py := x, y
		x = q.minimizeX(y, xlo, xhi, tol)
		y = q.minimizeY(x, ylo, yhi, tol)
		if math.Abs(x-px) < tol && math.Abs(y-py) < tol {
			break
		}
	}
	return x, y
}

// requireNoHigher fails unless (x, y) lies in the box [lo, hi]² and f
// there is no more than 1e-12 relative above fWant, the oracle's objective.
func requireNoHigher(t *testing.T, label string, f func(x, y float64) float64, lo, hi, x, y, fWant float64) {
	t.Helper()
	if !(x >= lo && x <= hi && y >= lo && y <= hi) {
		t.Fatalf("%s: argmin (%v, %v) outside [%v, %v]²", label, x, y, lo, hi)
	}
	if got := f(x, y); !(got <= fWant+1e-12*math.Abs(fWant)) {
		t.Fatalf("%s: objective %.17g at (%v, %v), oracle %.17g (%.3g relative above)",
			label, got, x, y, fWant, (got-fWant)/math.Abs(fWant))
	}
}

// TestQuartic2DMinimizeMatchesGoldenSection requires the Newton minimum of
// 3,000 randStep2 instances, each on the estimator's voltage box
// [0.5, 1.8]² and on [0.5, 1.5]², to lie in the box at an objective no
// more than 1e-12 relative above the golden-section oracle's. Objectives
// are compared, not points: along flat directions the two argmins can lie
// more than 1e-3 apart at objectives equal to rounding.
func TestQuartic2DMinimizeMatchesGoldenSection(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 3000; trial++ {
		q := randStep2(rng, 8+rng.Intn(80)).compile()
		for _, hi := range []float64{1.8, 1.5} {
			const lo = 0.5
			x, y, err := q.Minimize(lo, hi, lo, hi, 1e-12)
			if err != nil {
				t.Fatalf("trial %d: Minimize: %v", trial, err)
			}
			gx, gy := q.goldenMinimize(lo, hi, lo, hi, 1e-6)
			requireNoHigher(t, fmt.Sprintf("trial %d, box [%v, %v]²", trial, lo, hi),
				q.Eval, lo, hi, x, y, q.Eval(gx, gy))
		}
	}
}

// TestQuartic2DMinimizeMatchesMinimize2D compiles randStep2 instances and
// minimizes them with Minimize, against the closure-based minimize2D on the
// uncompiled sum of squares: the direct objective at the Newton point must
// be no more than 1e-12 relative above its value at minimize2D's.
func TestQuartic2DMinimizeMatchesMinimize2D(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		p := randStep2(rng, 8+rng.Intn(80))
		q := p.compile()

		const lo, hi, tol = 0.5, 1.5, 1e-6
		wantVc, wantVm, err := minimize2D(p.direct, lo, hi, lo, hi, tol)
		if err != nil {
			t.Fatalf("trial %d: minimize2D: %v", trial, err)
		}
		gotVc, gotVm, err := q.Minimize(lo, hi, lo, hi, 1e-12)
		if err != nil {
			t.Fatalf("trial %d: Quartic2D.Minimize: %v", trial, err)
		}
		requireNoHigher(t, fmt.Sprintf("trial %d", trial), p.direct, lo, hi, gotVc, gotVm, p.direct(wantVc, wantVm))
	}
}

// gridMin is the lowest value of f on an n×n grid over [lo, hi]²: a
// search-free oracle for surfaces with more than one local minimum.
func gridMin(f func(x, y float64) float64, lo, hi float64, n int) float64 {
	best := math.Inf(1)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		for j := 0; j < n; j++ {
			best = math.Min(best, f(x, lo+(hi-lo)*float64(j)/float64(n-1)))
		}
	}
	return best
}

// shifted returns the coefficients, in powers of x, of Σ_k a[k]·(x − c)^k
// for k = 0..4.
func shifted(a [5]float64, c float64) [5]float64 {
	var p [5]float64
	binom := [5][5]float64{{1}, {1, 1}, {1, 2, 1}, {1, 3, 3, 1}, {1, 4, 6, 4, 1}}
	for k, ak := range a {
		for j := 0; j <= k; j++ {
			p[j] += ak * binom[k][j] * math.Pow(-c, float64(k-j))
		}
	}
	return p
}

// TestQuartic2DMinimizeIndefiniteStart starts Minimize where the Hessian is
// indefinite (a double well along x, tilted towards its left well) and
// where it is negative definite (a concave surface, whose minimum is a
// corner), so the first steps are the shifted ones, and the concave
// surface's last steps run along an edge with negative curvature. Each
// result must reach the surface's lowest value on a fine grid.
func TestQuartic2DMinimizeIndefiniteStart(t *testing.T) {
	const lo, hi = 0.5, 1.5
	// (u² − a)² + s·u + (y − 1.2)² + k·x·y + 1 with u = x − 1.05.
	const a, s, k = 0.09, 0.01, 0.05
	wx := shifted([5]float64{a * a, s, -2 * a, 0, 1}, 1.05)
	wy := shifted([5]float64{0, 0, 1}, 1.2)
	well := Quartic2D{
		C00: wx[0] + wy[0] + 1, C10: wx[1], C20: wx[2], C30: wx[3], C40: wx[4],
		C01: wy[1], C02: wy[2], C11: k,
	}
	// −(x − 1.2)² − (y − 0.9)² + 0.2·x·y.
	concave := Quartic2D{C00: -1.44 - 0.81, C10: 2.4, C20: -1, C01: 1.8, C02: -1, C11: 0.2}
	for _, tc := range []struct {
		name string
		q    Quartic2D
	}{{"double well", well}, {"concave", concave}} {
		_, _, hxx, hxy, hyy := tc.q.derivs((lo+hi)/2, (lo+hi)/2)
		if hxx > 0 && hxx*hyy-hxy*hxy > 0 {
			t.Fatalf("%s: Hessian (%v, %v, %v) positive definite at the centre", tc.name, hxx, hxy, hyy)
		}
		x, y, err := tc.q.Minimize(lo, hi, lo, hi, 1e-12)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		requireNoHigher(t, tc.name, tc.q.Eval, lo, hi, x, y, gridMin(tc.q.Eval, lo, hi, 1001))
	}
}

// TestQuartic2DMinimizeBoundMinimum places the minimum of a surface on an
// edge of the box and beyond a corner, so the search ends holding one or
// both coordinates on their bounds. The edge surface,
// (x − 2.5)² + (19 − 10·x)·y² − 2·y, is convex in y with its least
// curvature on that edge, where its minimum is (1.8, 1); the corner one is
// a coupled convex quadratic whose minimum lies beyond (1.8, 0.5). Each
// result must sit exactly on its bounds at the golden-section oracle's
// objective or lower.
func TestQuartic2DMinimizeBoundMinimum(t *testing.T) {
	const lo, hi = 0.5, 1.8
	// (x − 2.5)² + (y − 0.2)² + 0.3·(x − 1)·(y − 1).
	bowl := Quartic2D{C00: 6.25 + 0.04 + 0.3, C10: -5.3, C20: 1, C01: -0.7, C02: 1, C11: 0.3}
	for _, tc := range []struct {
		name         string
		q            Quartic2D
		onXHi, onYLo bool
	}{
		{"edge x = 1.8", Quartic2D{C00: 6.25, C10: -5, C20: 1, C01: -2, C02: 19, C12: -10}, true, false},
		{"corner (1.8, 0.5)", bowl, true, true},
	} {
		x, y, err := tc.q.Minimize(lo, hi, lo, hi, 1e-12)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (x == hi) != tc.onXHi || (y == lo) != tc.onYLo {
			t.Fatalf("%s: argmin (%v, %v), want x on 1.8: %v, y on 0.5: %v", tc.name, x, y, tc.onXHi, tc.onYLo)
		}
		gx, gy := tc.q.goldenMinimize(lo, hi, lo, hi, 1e-9)
		requireNoHigher(t, tc.name, tc.q.Eval, lo, hi, x, y, tc.q.Eval(gx, gy))
	}
	if _, _, err := bowl.Minimize(1, 1, lo, hi, 1e-12); err == nil {
		t.Fatal("empty box accepted")
	}
}

// FuzzQuartic2DMinimize minimizes arbitrary coefficients on the voltage box
// [0.5, 1.8]²: the result must be finite and inside the box, and its
// objective no higher than the objective at the box centre, the start.
// Coefficients that make the centre's objective NaN only drop the last
// check.
func FuzzQuartic2DMinimize(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4; i++ {
		q := randStep2(rng, 83).compile()
		f.Add(q.C00, q.C10, q.C20, q.C30, q.C40, q.C01, q.C02, q.C03, q.C04, q.C11, q.C12, q.C21, q.C22)
	}
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(0.0, -1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(1.0, 2.4, -1.0, 0.0, 0.0, 1.8, -1.0, 0.0, 0.0, 0.2, 0.0, 0.0, 0.0)
	// Along x, slope −0.01 and curvature 0.002 at the centre send the full
	// Newton step to x = 1.8, which is above the centre yet a local minimum
	// on that edge: only backtracking stops there being the answer.
	bx := shifted([5]float64{0, -0.01, 0.001, 1, -1.5}, 1.15)
	by := shifted([5]float64{0, 0, 1}, 1.15)
	f.Add(bx[0]+by[0], bx[1], bx[2], bx[3], bx[4], by[1], by[2], 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, c00, c10, c20, c30, c40, c01, c02, c03, c04, c11, c12, c21, c22 float64) {
		q := Quartic2D{C00: c00, C10: c10, C20: c20, C30: c30, C40: c40,
			C01: c01, C02: c02, C03: c03, C04: c04, C11: c11, C12: c12, C21: c21, C22: c22}
		const lo, hi = 0.5, 1.8
		x, y, err := q.Minimize(lo, hi, lo, hi, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		if !(x >= lo && x <= hi && y >= lo && y <= hi) {
			t.Fatalf("argmin (%v, %v) not finite inside [%v, %v]²", x, y, lo, hi)
		}
		centre := q.Eval((lo+hi)/2, (lo+hi)/2)
		if got := q.Eval(x, y); !math.IsNaN(centre) && !(got <= centre) {
			t.Fatalf("objective %v at (%v, %v) above the centre's %v", got, x, y, centre)
		}
	})
}
