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
// evaluation, and gives the minimizer an analytic gradient and Hessian.
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

// derivs returns the gradient (gx, gy) and the Hessian entries hxx, hxy,
// hyy of the surface at (x, y).
func (q *Quartic2D) derivs(x, y float64) (gx, gy, hxx, hxy, hyy float64) {
	x2 := x * x
	y2 := y * y
	gx = q.C10 + 2*q.C20*x + 3*q.C30*x2 + 4*q.C40*x2*x +
		q.C11*y + q.C12*y2 + 2*q.C21*x*y + 2*q.C22*x*y2
	gy = q.C01 + 2*q.C02*y + 3*q.C03*y2 + 4*q.C04*y2*y +
		q.C11*x + 2*q.C12*x*y + q.C21*x2 + 2*q.C22*x2*y
	hxx = 2*q.C20 + 6*q.C30*x + 12*q.C40*x2 + 2*q.C21*y + 2*q.C22*y2
	hyy = 2*q.C02 + 6*q.C03*y + 12*q.C04*y2 + 2*q.C12*x + 2*q.C22*x2
	hxy = q.C11 + 2*q.C12*y + 2*q.C21*x + 4*q.C22*x*y
	return gx, gy, hxx, hxy, hyy
}

// newtonStep2 returns the Newton step −H⁻¹g. Where H is not positive
// definite it returns −(H + μI)⁻¹g with μ = −λmin(H) + ‖g‖/w: the shifted
// matrix's eigenvalues are at least ‖g‖/w, so the step is a descent
// direction no longer than w.
func newtonStep2(gx, gy, hxx, hxy, hyy, w float64) (float64, float64) {
	if !(hxx > 0 && hxx*hyy-hxy*hxy > 0) {
		lmin := (hxx+hyy)/2 - math.Hypot((hxx-hyy)/2, hxy)
		mu := math.Max(0, -lmin) + math.Hypot(gx, gy)/w
		hxx += mu
		hyy += mu
	}
	det := hxx*hyy - hxy*hxy
	return -(hyy*gx - hxy*gy) / det, -(hxx*gy - hxy*gx) / det
}

// newtonStep1 is newtonStep2 along one coordinate: −g/h, or −g·w/|g|
// where the curvature h is not positive.
func newtonStep1(g, h, w float64) float64 {
	if !(h > 0) {
		h = math.Abs(g) / w
	}
	return -g / h
}

// clamp projects v onto [lo, hi]. A NaN passes through, so a step with a
// NaN component is never accepted (see Minimize).
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// maxNewtonSteps caps Minimize's iterations. The catalog fits' step-2
// problems take 5 to 6 steps on average, and 3,000 random ones at most 9.
const maxNewtonSteps = 100

// Minimize minimizes the surface on [xlo,xhi]×[ylo,yhi] by a projected,
// damped Newton method, starting from the box centre:
//
//   - A coordinate on a bound is held there while its gradient, or the
//     Newton step along it, points out of the box; the step is then the
//     Newton step of the other coordinate alone. Both held is a corner
//     minimum.
//   - Where the (reduced) Hessian is not positive definite the step is the
//     shifted one of newtonStep2 and newtonStep1.
//   - The step is projected onto the box and halved until the objective
//     drops, so every accepted iterate is lower than the last.
//
// It stops when the projected step moves neither coordinate by tol or
// more (tol ≤ 0 means 1e-12), or after maxNewtonSteps steps. The result
// is always an accepted iterate: inside the box, finite, and no higher
// than the centre, whatever the coefficients. Allocation-free.
//
//gpower:noalloc Newton steps on six scalars; only an empty box reaches the error path
func (q *Quartic2D) Minimize(xlo, xhi, ylo, yhi, tol float64) (float64, float64, error) {
	if !(xlo < xhi) || !(ylo < yhi) {
		//gpower:allocs validation error path: an empty box never reaches the solver
		return 0, 0, fmt.Errorf("linalg: Quartic2D minimize invalid box [%g,%g]x[%g,%g]", xlo, xhi, ylo, yhi)
	}
	if !(tol > 0) {
		tol = 1e-12
	}
	w := math.Min(xhi-xlo, yhi-ylo)
	x := (xlo + xhi) / 2
	y := (ylo + yhi) / 2
	f := q.Eval(x, y)
	for step := 0; step < maxNewtonSteps; step++ {
		gx, gy, hxx, hxy, hyy := q.derivs(x, y)
		freeX := !(x == xlo && gx > 0 || x == xhi && gx < 0)
		freeY := !(y == ylo && gy > 0 || y == yhi && gy < 0)
		var dx, dy float64
		if freeX && freeY {
			dx, dy = newtonStep2(gx, gy, hxx, hxy, hyy, w)
			freeX = !(x == xlo && dx < 0 || x == xhi && dx > 0)
			freeY = !(y == ylo && dy < 0 || y == yhi && dy > 0)
		}
		switch {
		case freeX && freeY:
		case freeX:
			dx, dy = newtonStep1(gx, hxx, w), 0
		case freeY:
			dx, dy = 0, newtonStep1(gy, hyy, w)
		default:
			return x, y, nil
		}
		for t := 1.0; ; t /= 2 {
			nx := clamp(x+t*dx, xlo, xhi)
			ny := clamp(y+t*dy, ylo, yhi)
			if !(math.Abs(nx-x) >= tol || math.Abs(ny-y) >= tol) {
				return x, y, nil
			}
			if nf := q.Eval(nx, ny); nf < f {
				x, y, f = nx, ny, nf
				break
			}
		}
	}
	return x, y, nil
}
