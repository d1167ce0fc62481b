package linalg

import (
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

// TestQuartic2DMinimizeMatchesMinimize2D pins the closure-free coordinate
// descent to the closure-based minimize2D on the same objective: same box, same
// tolerance, the same minimizer arithmetic, so the located minima must
// coincide to within the search tolerance.
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
		gotVc, gotVm, err := q.Minimize(lo, hi, lo, hi, tol)
		if err != nil {
			t.Fatalf("trial %d: Quartic2D.Minimize: %v", trial, err)
		}

		if math.Abs(gotVc-wantVc) > 1e-4 || math.Abs(gotVm-wantVm) > 1e-4 {
			t.Fatalf("trial %d: argmin (%v, %v), minimize2D found (%v, %v)",
				trial, gotVc, gotVm, wantVc, wantVm)
		}
		// The objective at the two minima must agree even more tightly than
		// the argmins (the surface is flat at the bottom).
		fw, fg := p.direct(wantVc, wantVm), p.direct(gotVc, gotVm)
		if diff := math.Abs(fg - fw); diff > 1e-6*(1+math.Abs(fw)) {
			t.Fatalf("trial %d: objective %v vs %v at the two minima", trial, fg, fw)
		}
	}
}

// evalAxisRef and minimizeAxisRef are the line search Minimize used before
// the per-axis searches hoisted the fixed coordinate's terms: every step
// calls Eval in full. They are the oracle of TestQuartic2DMinimizeMatchesBits.
func (q *Quartic2D) evalAxisRef(t, other float64, alongX bool) float64 {
	if alongX {
		return q.Eval(t, other)
	}
	return q.Eval(other, t)
}

func (q *Quartic2D) minimizeAxisRef(alongX bool, other, lo, hi, tol float64) float64 {
	const invPhi = 0.6180339887498949 // 1/φ
	a, b := lo, hi
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	fc, fd := q.evalAxisRef(c, other, alongX), q.evalAxisRef(d, other, alongX)
	for b-a > tol {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - (b-a)*invPhi
			fc = q.evalAxisRef(c, other, alongX)
		} else {
			a, c, fc = c, d, fd
			d = a + (b-a)*invPhi
			fd = q.evalAxisRef(d, other, alongX)
		}
	}
	x := (a + b) / 2
	m := x
	fa, fm, fb := q.evalAxisRef(a, other, alongX), q.evalAxisRef(m, other, alongX), q.evalAxisRef(b, other, alongX)
	den := (a-m)*(fm-fb) - (m-b)*(fa-fm)
	if den != 0 {
		num := (a-m)*(a-m)*(fm-fb) - (m-b)*(m-b)*(fa-fm)
		cand := m - 0.5*num/den
		if cand > lo && cand < hi && !math.IsNaN(cand) && q.evalAxisRef(cand, other, alongX) < fm {
			x = cand
		}
	}
	return x
}

// minimizeRef is Minimize's sweep over the oracle line search.
func (q *Quartic2D) minimizeRef(xlo, xhi, ylo, yhi, tol float64) (float64, float64) {
	x := (xlo + xhi) / 2
	y := (ylo + yhi) / 2
	for sweep := 0; sweep < 60; sweep++ {
		px, py := x, y
		x = q.minimizeAxisRef(true, y, xlo, xhi, tol)
		y = q.minimizeAxisRef(false, x, ylo, yhi, tol)
		if math.Abs(x-px) < tol && math.Abs(y-py) < tol {
			break
		}
	}
	return x, y
}

// TestQuartic2DMinimizeMatchesBits requires the per-axis line searches to
// return the oracle's bits: hoisting the fixed coordinate's square and
// one-axis sum out of the search reorders no floating-point operation.
// The boxes include the estimator's voltage box and narrow, off-centre ones
// whose minimum sits on an edge.
func TestQuartic2DMinimizeMatchesBits(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	boxes := [][4]float64{{0.5, 1.5, 0.5, 1.5}, {0.8, 1.2, 0.9, 1.1}, {1.3, 2.0, 0.2, 0.6}}
	for trial := 0; trial < 200; trial++ {
		p := randStep2(rng, 8+rng.Intn(80))
		q := p.compile()
		box := boxes[trial%len(boxes)]
		tol := []float64{1e-6, 1e-9, 1e-4}[(trial/3)%3]
		wantX, wantY := q.minimizeRef(box[0], box[1], box[2], box[3], tol)
		gotX, gotY, err := q.Minimize(box[0], box[1], box[2], box[3], tol)
		if err != nil {
			t.Fatalf("trial %d: Minimize: %v", trial, err)
		}
		requireSameBits(t, "Quartic2D.Minimize", []float64{gotX, gotY}, []float64{wantX, wantY})
	}
}
