// Package silicon implements the hidden ground truth of the simulated GPUs:
// the true voltage-frequency curves, the true per-component power
// coefficients and the roofline timing model that converts a kernel
// descriptor into execution time and component utilizations.
//
// Nothing in this package is visible to the model estimator. The estimator
// observes the die only through the measurement backend (the simulated
// power sensor and clocks, and the cupti façade), exactly as the paper
// observes real silicon through NVML and CUPTI — the reproduction is meaningful because the
// fitted model must *recover* what this package hides.
package silicon

import (
	"fmt"
	"sort"
)

// VoltagePoint anchors the piecewise-linear voltage curve: at frequency FMHz
// the rail runs at Volts.
type VoltagePoint struct {
	FMHz  float64
	Volts float64
}

// VoltageCurve is a piecewise-linear V(f) relation. Real NVIDIA devices show
// the two-region shape of paper Fig. 6: a constant plateau at low
// frequencies, then a (super)linear rise — a piecewise-linear curve with a
// flat first segment captures both regions and lets the ground truth deviate
// from anything the estimator assumes.
type VoltageCurve struct {
	points []VoltagePoint
}

// NewVoltageCurve builds a curve from anchor points (any order; they are
// sorted by frequency). At least one point is required; voltages must be
// positive and non-decreasing with frequency (a physical DVFS rail never
// lowers voltage when raising frequency).
func NewVoltageCurve(points ...VoltagePoint) (*VoltageCurve, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("silicon: voltage curve needs at least one point")
	}
	ps := append([]VoltagePoint(nil), points...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].FMHz < ps[j].FMHz })
	for i, p := range ps {
		if p.Volts <= 0 {
			return nil, fmt.Errorf("silicon: non-positive voltage %g V at %g MHz", p.Volts, p.FMHz)
		}
		if i > 0 {
			if ps[i].FMHz == ps[i-1].FMHz { //lint:ignore floateq anchor frequencies are exact catalog constants; duplicate detection wants bitwise equality
				return nil, fmt.Errorf("silicon: duplicate voltage anchor at %g MHz", p.FMHz)
			}
			if ps[i].Volts < ps[i-1].Volts {
				return nil, fmt.Errorf("silicon: voltage decreases with frequency at %g MHz", p.FMHz)
			}
		}
	}
	return &VoltageCurve{points: ps}, nil
}

// MustVoltageCurve is NewVoltageCurve that panics on error; for the static
// device catalog whose anchors are compile-time constants.
func MustVoltageCurve(points ...VoltagePoint) *VoltageCurve {
	c, err := NewVoltageCurve(points...)
	if err != nil {
		panic(err)
	}
	return c
}

// VoltsAt returns V(f) by linear interpolation, clamping outside the anchor
// range (plateau extension on both ends).
func (c *VoltageCurve) VoltsAt(fMHz float64) float64 {
	ps := c.points
	if fMHz <= ps[0].FMHz {
		return ps[0].Volts
	}
	last := ps[len(ps)-1]
	if fMHz >= last.FMHz {
		if len(ps) == 1 {
			return last.Volts
		}
		// Extrapolate the final segment's slope beyond the last anchor so a
		// ladder extending past it keeps the rising trend.
		prev := ps[len(ps)-2]
		slope := (last.Volts - prev.Volts) / (last.FMHz - prev.FMHz)
		return last.Volts + slope*(fMHz-last.FMHz)
	}
	for i := 1; i < len(ps); i++ {
		if fMHz <= ps[i].FMHz {
			a, b := ps[i-1], ps[i]
			t := (fMHz - a.FMHz) / (b.FMHz - a.FMHz)
			return a.Volts + t*(b.Volts-a.Volts)
		}
	}
	return last.Volts // unreachable
}

// NormalizedAt returns V̄(f) = V(f)/V(refMHz) — the quantity the paper's
// model estimates (Eq. 5 normalization to the reference configuration).
func (c *VoltageCurve) NormalizedAt(fMHz, refMHz float64) float64 {
	return c.VoltsAt(fMHz) / c.VoltsAt(refMHz)
}
