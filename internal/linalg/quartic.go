package linalg

import (
	"fmt"
	"math"
)

// Quartic2D is a bivariate quartic surface of the shape produced by the
// estimator's per-configuration step-2 objective (paper Section III-D):
//
//	f(x, y) = Σ_b (D_b − p·x − q_b·x² − r·y − s_b·y²)²
//
// expanded into thirteen monomial coefficients. Compiling the sum of squares
// into this closed form turns every objective evaluation inside the 2-D
// minimization from an O(n_benchmarks) loop into a constant-time polynomial
// evaluation — the evaluation count per fit is in the hundreds of thousands,
// so this is where the step-2 time goes.
//
// Cxy multiplies xˣ·yʸ. The expansion cost is one O(n_benchmarks) pass per
// configuration (see core.solveVoltages); evaluation is pure straight-line
// arithmetic, so it is deterministic and allocation-free by construction.
type Quartic2D struct {
	C00, C10, C20, C30, C40 float64 // 1, x, x², x³, x⁴
	C01, C02, C03, C04      float64 // y, y², y³, y⁴
	C11, C12, C21, C22      float64 // x·y, x·y², x²·y, x²·y²
}

// Eval evaluates the surface at (x, y) with a fixed operation order, so the
// result is bitwise-reproducible across calls and goroutines.
func (q *Quartic2D) Eval(x, y float64) float64 {
	x2 := x * x
	y2 := y * y
	sx := q.C00 + q.C10*x + q.C20*x2 + q.C30*x2*x + q.C40*x2*x2
	sy := q.C01*y + q.C02*y2 + q.C03*y2*y + q.C04*y2*y2
	sxy := q.C11*x*y + q.C12*x*y2 + q.C21*x2*y + q.C22*x2*y2
	return sx + sy + sxy
}

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

// minimizeX is Minimize1D along x at fixed y, specialized to the compiled
// surface: identical golden-section + parabolic-refinement arithmetic, with
// direct method calls instead of a closure (so the per-configuration
// voltage solves stay off the allocator) and y's terms computed once.
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

// Minimize minimizes the surface on [xlo,xhi]×[ylo,yhi] by coordinate
// descent with golden-section line searches — the same search structure as
// Minimize2D, with the closure-based objective replaced by the compiled
// polynomial. Allocation-free.
func (q *Quartic2D) Minimize(xlo, xhi, ylo, yhi, tol float64) (float64, float64, error) {
	if !(xlo < xhi) || !(ylo < yhi) {
		return 0, 0, fmt.Errorf("linalg: Quartic2D minimize invalid box [%g,%g]x[%g,%g]", xlo, xhi, ylo, yhi)
	}
	if tol <= 0 {
		tol = 1e-9
	}
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
	return x, y, nil
}
