package core

import (
	"fmt"
	"math"

	"gpupower/internal/hw"
)

// This file keeps the pre-restructuring estimation engine as the oracle of
// TestEstimateMatchesReferenceEngine: row-by-row design assembly with
// per-call allocation (referenceSolveX, referenceTrainingSSE in
// estimate_equiv_test.go) and step-2 objectives evaluated directly — an
// O(nb) benchmark loop per evaluation inside a closure-based golden-section
// search.

// refMinimize1D finds a minimizer of f on [lo, hi] by golden-section search
// refined with a final parabolic step: the historical line search, which
// Quartic2D.Minimize's Newton method replaced.
func refMinimize1D(f func(float64) float64, lo, hi, tol float64) float64 {
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
	return x
}

// refMinimize2D minimizes f on the box [lo,hi]² by coordinate descent with
// refMinimize1D line searches. On a compiled objective (f = q.Eval) it is
// the step 2 that production ran before the Newton method, the oracle of
// TestStep2MinimizeMatchesGoldenSection.
func refMinimize2D(f func(x, y float64) float64, lo, hi, tol float64) (float64, float64) {
	x := (lo + hi) / 2
	y := (lo + hi) / 2
	const maxSweeps = 60
	for sweep := 0; sweep < maxSweeps; sweep++ {
		px, py := x, y
		x = refMinimize1D(func(t float64) float64 { return f(t, y) }, lo, hi, tol)
		y = refMinimize1D(func(t float64) float64 { return f(x, t) }, lo, hi, tol)
		if math.Abs(x-px) < tol && math.Abs(y-py) < tol {
			break
		}
	}
	return x, y
}

// solveVoltagesRef is the historical step 2: a direct sum-of-squares
// objective closure per configuration, minimized by refMinimize2D.
func solveVoltagesRef(d *Dataset, x []float64, volt *VoltageTable, opts *EstimatorOptions) error {
	nb := len(d.Benchmarks)
	A := make([]float64, nb)
	B := make([]float64, nb)
	for bi, bench := range d.Benchmarks {
		A[bi] = x[1]
		for i, c := range CoreOmegaOrder {
			A[bi] += x[4+i] * bench.Util[c]
		}
		B[bi] = x[3] + x[nParams-1]*bench.Util[hw.DRAM]
	}
	beta0, beta2 := x[0], x[2]
	for fi, cfg := range d.Configs {
		if cfg == d.Ref {
			if err := volt.Set(cfg, 1, 1); err != nil {
				return err
			}
			continue
		}
		fc, fm := cfg.CoreMHz, cfg.MemMHz
		obj := func(vc, vm float64) float64 {
			var s float64
			for bi := range d.Benchmarks {
				pred := beta0*vc + vc*vc*fc*A[bi] + beta2*vm + vm*vm*fm*B[bi]
				diff := d.Power[bi][fi] - pred
				s += diff * diff
			}
			return s
		}
		vc, vm := refMinimize2D(obj, opts.VoltageLo, opts.VoltageHi, 1e-6)
		if err := volt.Set(cfg, vc, vm); err != nil {
			return err
		}
	}
	if err := new(monotonicProjector).projectMonotonic(volt); err != nil {
		return err
	}
	return renormalize(volt, d.Ref)
}

// estimateReference runs the Section III-D alternation with the historical
// engine described at the top of this file, at the default options.
func estimateReference(d *Dataset) (*Model, error) {
	opts := DefaultEstimatorOptions()
	if err := d.Validate(); err != nil {
		return nil, err
	}

	volt := NewVoltageTable(d.Device.CoreFreqs, d.Device.MemFreqs)
	m := &Model{
		DeviceName:      d.Device.Name,
		Ref:             d.Ref,
		Voltages:        volt,
		L2BytesPerCycle: d.L2BytesPerCycle,
	}
	allConfigs := make([]int, len(d.Configs))
	for i := range d.Configs {
		allConfigs[i] = i
	}

	init, err := initialConfigs(d)
	if err != nil {
		return nil, err
	}
	x, err := referenceSolveX(d, volt, init)
	if err != nil {
		return nil, fmt.Errorf("core: step 1 failed: %w", err)
	}

	prevX := append([]float64(nil), x...)
	prevVolt := volt.Clone()
	prevSSE := math.Inf(1)
	for iter := 1; iter <= opts.MaxIterations; iter++ {
		m.Iterations = iter
		if err := solveVoltagesRef(d, x, volt, opts); err != nil {
			return nil, fmt.Errorf("core: step 2 (iteration %d) failed: %w", iter, err)
		}
		if opts.OverRelax > 1 && iter > 1 {
			if err := overRelax(prevVolt, volt, opts, d.Ref, new(monotonicProjector)); err != nil {
				return nil, fmt.Errorf("core: over-relaxation (iteration %d) failed: %w", iter, err)
			}
		}
		if x, err = referenceSolveX(d, volt, allConfigs); err != nil {
			return nil, fmt.Errorf("core: step 3 (iteration %d) failed: %w", iter, err)
		}

		dv := voltageDelta(prevVolt, volt)
		dx := relDelta(prevX, x)
		sse, err := referenceTrainingSSE(d, volt, allConfigs, x)
		if err != nil {
			return nil, fmt.Errorf("core: SSE evaluation (iteration %d) failed: %w", iter, err)
		}
		sseFlat := prevSSE > 0 && math.Abs(prevSSE-sse)/prevSSE < opts.SSETol
		if (dv < opts.Tol && dx < opts.Tol) || (iter > 1 && sseFlat) {
			m.Converged = true
			break
		}
		prevSSE = sse
		prevX = append(prevX[:0], x...)
		prevVolt.CopyFrom(volt)
	}

	paramsToModel(m, x)
	return m, m.Validate()
}
