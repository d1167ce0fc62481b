// Package baselines implements the comparator models the paper discusses in
// Sections II and VI, fitted on exactly the same training data as the
// proposed model so the comparison isolates the modelling assumptions:
//
//   - Abe et al. (IPDPS'14): per-domain frequency-linear regression trained
//     at 3 core × 3 memory frequencies, no voltage term. The paper reports
//     15 / 14 / 23.5 % errors for this family and argues its linear-in-f
//     assumption breaks on modern devices.
//   - GPUWattch-style (ISCA'13): the domain power always scales linearly
//     with its frequency (constant voltage) — equivalent to the proposed
//     model with V̄ ≡ 1.
//   - Fixed-configuration statistical model (Nagasaka et al., IGCC'10):
//     utilization regression at the reference configuration with no
//     DVFS awareness at all.
//   - Wu et al. (HPCA'15)-style: k-means clustering of power-scaling
//     curves plus a nearest-centroid classifier on utilization features.
package baselines

import (
	"context"
	"fmt"

	"gpupower/internal/core"
	"gpupower/internal/hw"
	"gpupower/internal/linalg"
)

// Input is what a baseline may know about an application: its utilization
// vector from reference-configuration events and (for the scaling-curve
// family) its measured power at the reference configuration.
type Input struct {
	Util     core.Utilization
	RefPower float64
}

// abeComponents fixes the component order of the Abe regression.
var abeComponents = []hw.Component{hw.Int, hw.SP, hw.DP, hw.SF, hw.Shared, hw.L2}

// AbeModel is the frequency-linear two-domain regression:
//
//	P = c0 + (a0 + Σ a_i·U_i)·f_core + (b0 + b_1·U_dram)·f_mem
//
// estimated by ordinary least squares at 3 core × 3 memory frequencies
// (or as many as the device exposes).
type AbeModel struct {
	C0    float64
	A     []float64 // a0 then one per abeComponents
	B     []float64 // b0, b1
	Train []hw.Config
}

// Name is the comparator's label in the baseline table.
func (m *AbeModel) Name() string { return "Abe et al. (linear-f regression)" }

func abeRow(u core.Utilization, cfg hw.Config) []float64 {
	row := make([]float64, 1+1+len(abeComponents)+2)
	row[0] = 1
	row[1] = cfg.CoreMHz
	for i, c := range abeComponents {
		row[2+i] = cfg.CoreMHz * u[c]
	}
	row[2+len(abeComponents)] = cfg.MemMHz
	row[3+len(abeComponents)] = cfg.MemMHz * u[hw.DRAM]
	return row
}

// Predict returns the comparator's power estimate for in at cfg.
func (m *AbeModel) Predict(in Input, cfg hw.Config) (float64, error) {
	row := abeRow(in.Util, cfg)
	x := append([]float64{m.C0}, m.A...)
	x = append(x, m.B...)
	if len(row) != len(x) {
		return 0, fmt.Errorf("baselines: abe coefficient mismatch %d vs %d", len(row), len(x))
	}
	return linalg.Dot(row, x), nil
}

// pick3 selects low/mid/high entries of an ascending ladder (fewer when the
// ladder is shorter).
func pick3(ladder []float64) []float64 {
	switch len(ladder) {
	case 0:
		return nil
	case 1, 2, 3:
		return append([]float64(nil), ladder...)
	default:
		return []float64{ladder[0], ladder[len(ladder)/2], ladder[len(ladder)-1]}
	}
}

// FitAbe estimates the Abe regression from the training dataset, using only
// the 3×3 frequency grid the original method prescribes.
func FitAbe(d *core.Dataset) (*AbeModel, error) {
	cores := pick3(d.Device.CoreFreqs)
	mems := pick3(d.Device.MemFreqs)
	var train []hw.Config
	var rows [][]float64
	var rhs []float64
	for fi, cfg := range d.Configs {
		if !containsF(cores, cfg.CoreMHz) || !containsF(mems, cfg.MemMHz) {
			continue
		}
		train = append(train, cfg)
		for bi, bench := range d.Benchmarks {
			rows = append(rows, abeRow(bench.Util, cfg))
			rhs = append(rhs, d.Power[bi][fi])
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("baselines: no training configurations for Abe model")
	}
	a, err := linalg.NewMatrixFromRows(rows)
	if err != nil {
		return nil, err
	}
	// Original method: plain linear regression (coefficients may go
	// negative — one of its documented weaknesses). Ridge fallback keeps the
	// single-memory-frequency device solvable (f_mem column is constant and
	// collinear with the intercept there).
	x, err := linalg.LeastSquares(a, rhs)
	if err != nil {
		x, err = linalg.RidgeLeastSquares(a, rhs, 1e-6)
		if err != nil {
			return nil, err
		}
	}
	nc := len(abeComponents)
	return &AbeModel{
		C0:    x[0],
		A:     append([]float64(nil), x[1:2+nc]...),
		B:     append([]float64(nil), x[2+nc:4+nc]...),
		Train: train,
	}, nil
}

func containsF(v []float64, x float64) bool {
	for _, y := range v {
		if y == x { //lint:ignore floateq ladder membership: training splits select exact catalog frequencies, not computed values
			return true
		}
	}
	return false
}

// LinearFreqModel is the GPUWattch-style comparator: the proposed model
// family with the voltage pinned to 1 everywhere, so each domain's power is
// strictly linear in its frequency.
type LinearFreqModel struct {
	inner *core.Model
}

// Name is the comparator's label in the baseline table.
func (m *LinearFreqModel) Name() string { return "GPUWattch-style (linear-f, no voltage)" }

// Predict returns the comparator's power estimate for in at cfg.
func (m *LinearFreqModel) Predict(in Input, cfg hw.Config) (float64, error) {
	return m.inner.Predict(in.Util, cfg)
}

// FitLinearFreq fits the linear-frequency comparator on the full dataset.
func FitLinearFreq(ctx context.Context, d *core.Dataset) (*LinearFreqModel, error) {
	opts := core.DefaultEstimatorOptions()
	opts.DisableVoltage = true
	inner, err := core.Estimate(ctx, d, opts)
	if err != nil {
		return nil, err
	}
	return &LinearFreqModel{inner: inner}, nil
}

// FixedConfigModel is the no-DVFS statistical comparator: a utilization
// regression fitted at the reference configuration; its prediction ignores
// the target configuration entirely.
type FixedConfigModel struct {
	coef []float64 // intercept + one per hw.Components
}

// Name is the comparator's label in the baseline table.
func (m *FixedConfigModel) Name() string { return "Fixed-configuration regression (no DVFS)" }

func fixedRow(u core.Utilization) []float64 {
	row := make([]float64, 1+len(hw.Components))
	row[0] = 1
	for i, c := range hw.Components {
		row[1+i] = u[c]
	}
	return row
}

// Predict returns the comparator's power estimate for in at cfg.
func (m *FixedConfigModel) Predict(in Input, _ hw.Config) (float64, error) {
	return linalg.Dot(fixedRow(in.Util), m.coef), nil
}

// FitFixedConfig fits the reference-configuration regression.
func FitFixedConfig(d *core.Dataset) (*FixedConfigModel, error) {
	refIdx := -1
	for i, cfg := range d.Configs {
		if cfg == d.Ref {
			refIdx = i
			break
		}
	}
	if refIdx < 0 {
		return nil, fmt.Errorf("baselines: reference configuration not in dataset")
	}
	var rows [][]float64
	var rhs []float64
	for bi, bench := range d.Benchmarks {
		rows = append(rows, fixedRow(bench.Util))
		rhs = append(rhs, d.Power[bi][refIdx])
	}
	a, err := linalg.NewMatrixFromRows(rows)
	if err != nil {
		return nil, err
	}
	x, err := linalg.LeastSquares(a, rhs)
	if err != nil {
		return nil, err
	}
	return &FixedConfigModel{coef: x}, nil
}
