package linalg

import (
	"fmt"
	"math"
	"testing"

	"gpupower/internal/stats"
)

// minimize1D and minimize2D are the closure-based golden-section searches
// that step 2 ran before its objective was compiled to a Quartic2D. They
// stay as the oracle of TestQuartic2DMinimizeMatchesMinimize2D, which
// minimizes the uncompiled sum of squares with them.

// minimize1D finds a minimizer of f on [lo, hi] by golden-section search
// refined with a final parabolic step. It assumes f is continuous; for the
// voltage-estimation objective (a quartic polynomial with positive leading
// coefficient on a narrow physical interval) this converges to the global
// minimum on the interval.
func minimize1D(f func(float64) float64, lo, hi, tol float64) (float64, error) {
	if !(lo < hi) {
		return 0, fmt.Errorf("linalg: minimize1D invalid interval [%g, %g]", lo, hi)
	}
	if tol <= 0 {
		tol = 1e-10
	}
	const invPhi = 0.6180339887498949 // 1/φ
	a, b := lo, hi
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	fc, fd := f(c), f(d)
	for b-a > tol {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - (b-a)*invPhi
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + (b-a)*invPhi
			fd = f(d)
		}
	}
	x := (a + b) / 2
	// One parabolic refinement through (a, mid, b) if it stays in range.
	m := x
	fa, fm, fb := f(a), f(m), f(b)
	den := (a-m)*(fm-fb) - (m-b)*(fa-fm)
	if den != 0 {
		num := (a-m)*(a-m)*(fm-fb) - (m-b)*(m-b)*(fa-fm)
		cand := m - 0.5*num/den
		if cand > lo && cand < hi && !math.IsNaN(cand) && f(cand) < fm {
			x = cand
		}
	}
	return x, nil
}

// minimize2D minimizes f(x, y) on the box [xlo,xhi]×[ylo,yhi] by coordinate
// descent with golden-section line searches (paper Eq. 12's per-
// configuration joint (V̄core, V̄mem) estimation). Returns the minimizer.
func minimize2D(f func(x, y float64) float64, xlo, xhi, ylo, yhi, tol float64) (float64, float64, error) {
	if !(xlo < xhi) || !(ylo < yhi) {
		return 0, 0, fmt.Errorf("linalg: minimize2D invalid box [%g,%g]x[%g,%g]", xlo, xhi, ylo, yhi)
	}
	if tol <= 0 {
		tol = 1e-9
	}
	x := (xlo + xhi) / 2
	y := (ylo + yhi) / 2
	const maxSweeps = 60
	for sweep := 0; sweep < maxSweeps; sweep++ {
		px, py := x, y
		nx, err := minimize1D(func(t float64) float64 { return f(t, y) }, xlo, xhi, tol)
		if err != nil {
			return 0, 0, err
		}
		x = nx
		ny, err := minimize1D(func(t float64) float64 { return f(x, t) }, ylo, yhi, tol)
		if err != nil {
			return 0, 0, err
		}
		y = ny
		if math.Abs(x-px) < tol && math.Abs(y-py) < tol {
			break
		}
	}
	return x, y, nil
}

func TestMinimize1DQuadratic(t *testing.T) {
	x, err := minimize1D(func(x float64) float64 { return (x - 1.3) * (x - 1.3) }, 0, 3, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x, 1.3, 1e-6) {
		t.Fatalf("x = %g, want 1.3", x)
	}
}

func TestMinimize1DQuarticVoltageShape(t *testing.T) {
	// The step-2 objective shape: (P − β0·v − v²·f·A)² with one observation.
	const (
		beta0 = 30.0
		f     = 975.0
		A     = 0.08
		vTrue = 0.87
	)
	p := beta0*vTrue + vTrue*vTrue*f*A
	obj := func(v float64) float64 {
		d := p - beta0*v - v*v*f*A
		return d * d
	}
	x, err := minimize1D(obj, 0.5, 1.8, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x, vTrue, 1e-4) {
		t.Fatalf("x = %g, want %g", x, vTrue)
	}
}

func TestMinimize1DBoundary(t *testing.T) {
	// Monotone decreasing function: minimum at the right edge.
	x, err := minimize1D(func(x float64) float64 { return -x }, 0, 2, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x, 2, 1e-4) {
		t.Fatalf("x = %g, want 2", x)
	}
}

func TestMinimize1DInvalidInterval(t *testing.T) {
	if _, err := minimize1D(func(x float64) float64 { return x }, 2, 1, 1e-9); err == nil {
		t.Fatal("invalid interval accepted")
	}
}

func TestMinimize2DQuadraticBowl(t *testing.T) {
	x, y, err := minimize2D(func(x, y float64) float64 {
		return (x-0.8)*(x-0.8) + 2*(y-1.2)*(y-1.2) + 0.5*(x-0.8)*(y-1.2)
	}, 0, 2, 0, 2, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x, 0.8, 1e-4) || !almostEq(y, 1.2, 1e-4) {
		t.Fatalf("(x,y) = (%g,%g), want (0.8,1.2)", x, y)
	}
}

func TestMinimize2DRandomQuadratics(t *testing.T) {
	rng := stats.NewRNG(5)
	for trial := 0; trial < 50; trial++ {
		cx := rng.Uniform(0.6, 1.6)
		cy := rng.Uniform(0.6, 1.6)
		ax := rng.Uniform(0.5, 5)
		ay := rng.Uniform(0.5, 5)
		x, y, err := minimize2D(func(x, y float64) float64 {
			return ax*(x-cx)*(x-cx) + ay*(y-cy)*(y-cy)
		}, 0.5, 1.8, 0.5, 1.8, 1e-10)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(x-cx) > 1e-4 || math.Abs(y-cy) > 1e-4 {
			t.Fatalf("trial %d: got (%g,%g), want (%g,%g)", trial, x, y, cx, cy)
		}
	}
}

func TestMinimize2DInvalidBox(t *testing.T) {
	if _, _, err := minimize2D(func(x, y float64) float64 { return 0 }, 1, 0, 0, 1, 1e-9); err == nil {
		t.Fatal("invalid box accepted")
	}
}
