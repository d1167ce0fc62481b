package core

import (
	"context"
	"fmt"
	"math"

	"gpupower/internal/backend"
	"gpupower/internal/hw"
	"gpupower/internal/linalg"
)

// This file preserves the pre-restructuring estimation engine as a living
// baseline: row-by-row design assembly with per-call allocation, NNLS
// through the reference (Hypot-chain) QR kernel, and step-2 objectives
// evaluated directly — an O(nb) benchmark loop per evaluation inside
// Minimize2D. It is what the estimate-fit speedup rows measure against
// (internal/experiments/speedup.go) and what the accuracy cross-check tests
// compare the production engine to. Nothing on the production path calls it.

// solveXRef is the historical step-1/step-3 solve: build the design row by
// row, then NNLS via the reference QR kernel.
func solveXRef(d *Dataset, volt *VoltageTable, configIdx []int) ([]float64, error) {
	nb := len(d.Benchmarks)
	rows := nb * len(configIdx)
	a := linalg.NewMatrix(rows, nParams)
	b := make([]float64, rows)
	r := 0
	for _, fi := range configIdx {
		cfg := d.Configs[fi]
		vc, vm, err := volt.At(cfg)
		if err != nil {
			return nil, err
		}
		for bi := 0; bi < nb; bi++ {
			designRowInto(a.RowView(r), d.Benchmarks[bi].Util, cfg, vc, vm)
			b[r] = d.Power[bi][fi]
			r++
		}
	}
	return linalg.NNLSRef(a, b)
}

// solveVoltagesRef is the historical step 2: a direct sum-of-squares
// objective closure per configuration, minimized by the generic Minimize2D.
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
		fi := fi
		obj := func(vc, vm float64) float64 {
			var s float64
			for bi := range d.Benchmarks {
				pred := beta0*vc + vc*vc*fc*A[bi] + beta2*vm + vm*vm*fm*B[bi]
				diff := d.Power[bi][fi] - pred
				s += diff * diff
			}
			return s
		}
		vc, vm, err := linalg.Minimize2D(obj, opts.VoltageLo, opts.VoltageHi,
			opts.VoltageLo, opts.VoltageHi, 1e-6)
		if err != nil {
			return err
		}
		if err := volt.Set(cfg, vc, vm); err != nil {
			return err
		}
	}
	if !opts.DisableMonotonic {
		if err := new(monotonicProjector).projectMonotonic(volt); err != nil {
			return err
		}
	}
	return renormalize(volt, d.Ref)
}

// trainingSSERef evaluates the training SSE the historical way: one design
// row per sample, dotted with x.
func trainingSSERef(d *Dataset, volt *VoltageTable, x []float64) (float64, error) {
	row := make([]float64, nParams)
	var sse float64
	for fi, cfg := range d.Configs {
		vc, vm, err := volt.At(cfg)
		if err != nil {
			return 0, fmt.Errorf("core: training SSE at %v: %w", cfg, err)
		}
		for bi := range d.Benchmarks {
			designRowInto(row, d.Benchmarks[bi].Util, cfg, vc, vm)
			var pred float64
			for j, v := range row {
				pred += v * x[j]
			}
			diff := d.Power[bi][fi] - pred
			sse += diff * diff
		}
	}
	return sse, nil
}

// EstimateReference runs the Section III-D alternation with the historical
// engine described at the top of this file. It supports the same options as
// Estimate minus the ablation/known-voltage shortcuts (which bypass the
// alternation entirely and therefore have nothing to baseline).
func EstimateReference(ctx context.Context, d *Dataset, opts *EstimatorOptions) (*Model, error) {
	if opts == nil {
		opts = DefaultEstimatorOptions()
	}
	if opts.DisableVoltage || opts.LinearVoltage || opts.KnownVoltages != nil {
		return nil, fmt.Errorf("core: EstimateReference does not support ablation or known-voltage modes")
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxIterations < 1 {
		return nil, fmt.Errorf("core: MaxIterations must be >= 1")
	}
	if err := backend.CheckContext(ctx, "core: estimate (reference)"); err != nil {
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
	x, err := solveXRef(d, volt, init)
	if err != nil {
		return nil, fmt.Errorf("core: step 1 failed: %w", err)
	}

	prevX := append([]float64(nil), x...)
	prevVolt := volt.Clone()
	prevSSE := math.Inf(1)
	for iter := 1; iter <= opts.MaxIterations; iter++ {
		if err := backend.CheckContext(ctx, fmt.Sprintf("core: estimate reference (iteration %d)", iter)); err != nil {
			return nil, err
		}
		m.Iterations = iter
		if err := solveVoltagesRef(d, x, volt, opts); err != nil {
			return nil, fmt.Errorf("core: step 2 (iteration %d) failed: %w", iter, err)
		}
		if opts.OverRelax > 1 && iter > 1 {
			if err := overRelax(prevVolt, volt, opts, d.Ref, new(monotonicProjector)); err != nil {
				return nil, fmt.Errorf("core: over-relaxation (iteration %d) failed: %w", iter, err)
			}
		}
		if x, err = solveXRef(d, volt, allConfigs); err != nil {
			return nil, fmt.Errorf("core: step 3 (iteration %d) failed: %w", iter, err)
		}

		dv := voltageDelta(prevVolt, volt)
		dx := relDelta(prevX, x)
		sse, err := trainingSSERef(d, volt, x)
		if err != nil {
			return nil, fmt.Errorf("core: SSE evaluation (iteration %d) failed: %w", iter, err)
		}
		if opts.Trace != nil {
			opts.Trace(iter, dv, dx, sse)
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
