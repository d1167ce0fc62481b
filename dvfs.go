package gpupower

import (
	"context"
	"fmt"

	"gpupower/internal/core"
)

// The DVFS-management use case of the paper (Section V-B, "Use cases" #3):
// the fitted power model shrinks the search for an energy-optimal V-F
// configuration from exhaustive execution at every configuration to a pure
// table evaluation. Power comes from the model; relative execution time
// comes from a roofline companion built on the same utilization vector
// (the paper pairs its power model with the authors' earlier performance
// classification work [9]).

// EstimateRelativeTime predicts T(cfg)/T(ref) for an application with the
// given reference-configuration utilizations: the core-domain share of the
// critical path stretches with f_ref/f_core and the memory share with
// f_ref/f_mem, with the bound resource dominating.
func EstimateRelativeTime(u Utilization, ref, cfg Config) float64 {
	return core.EstimateRelativeTime(u, ref, cfg)
}

// OperatingPoint is one evaluated V-F configuration.
type OperatingPoint struct {
	Config Config
	// PowerW is the model-predicted average power.
	PowerW float64
	// RelTime is the estimated execution-time ratio vs the reference.
	RelTime float64
	// RelEnergy is PowerW · RelTime normalized by the reference's
	// power (energy ratio vs running at the reference configuration).
	RelEnergy float64
	// RelEDP is the energy-delay-product ratio vs the reference.
	RelEDP float64
}

// Objective selects what the DVFS search minimizes.
type Objective int

const (
	// MinEnergy minimizes energy (power × time).
	MinEnergy Objective = iota
	// MinEDP minimizes the energy-delay product.
	MinEDP
	// MinPowerUnderTDP minimizes power (always TDP-feasible by preferring
	// lower clocks).
	MinPowerUnderTDP
)

func (o Objective) String() string {
	switch o {
	case MinEnergy:
		return "min-energy"
	case MinEDP:
		return "min-EDP"
	case MinPowerUnderTDP:
		return "min-power"
	default:
		// Exhaustive default: an out-of-range value still prints something
		// diagnosable rather than an empty string.
		return fmt.Sprintf("unknown(%d)", int(o))
	}
}

// operatingSurface resolves the memoized prediction surface for a profile.
// The relative-energy columns divide by the reference power, so a profile
// whose reference power prediction is not positive has no operating points.
func operatingSurface(ctx context.Context, m *Model, dev *Device, p *Profile) (*core.Surface, error) {
	s, err := core.Surfaces.Get(ctx, m, dev, p.Ref, p.Utilization)
	if err != nil {
		return nil, err
	}
	if s.RefPower <= 0 {
		return nil, fmt.Errorf("gpupower: non-positive reference power prediction %g", s.RefPower)
	}
	return s, nil
}

// pointAt materializes ladder point i of a surface.
func pointAt(s *core.Surface, i int) OperatingPoint {
	return OperatingPoint{
		Config:    s.Configs[i],
		PowerW:    s.PowerW[i],
		RelTime:   s.RelTime[i],
		RelEnergy: s.RelEnergy[i],
		RelEDP:    s.RelEDP[i],
	}
}

// EvaluateOperatingPoints evaluates the model at every configuration of the
// device without executing the application anywhere but the reference —
// the design-space pruning the paper highlights. The evaluation is served
// from the process-wide prediction-surface cache (core.Surfaces): the first
// call for a (model, device, profile) tuple computes the full ladder, and
// repeated calls — DVFS sweeps, governor decisions for an already-profiled
// kernel — reduce to one cache lookup plus a copy into fresh points. The
// returned slice is always in deterministic ladder order, and its values
// are bitwise-identical to evaluating Model.Predict point by point.
func EvaluateOperatingPoints(m *Model, dev *Device, p *Profile) ([]OperatingPoint, error) {
	return EvaluateOperatingPointsContext(context.Background(), m, dev, p) //lint:ignore ctxflow non-cancellable convenience wrapper; the *Context sibling is the cancellable API
}

// EvaluateOperatingPointsContext is EvaluateOperatingPoints under a
// context: a cold surface computation checks cancellation at configuration
// granularity, a warm hit once on entry; either surfaces as an error
// wrapping ctx.Err().
func EvaluateOperatingPointsContext(ctx context.Context, m *Model, dev *Device, p *Profile) ([]OperatingPoint, error) {
	s, err := operatingSurface(ctx, m, dev, p)
	if err != nil {
		return nil, err
	}
	pts := make([]OperatingPoint, s.Len())
	for i := range pts {
		pts[i] = pointAt(s, i)
	}
	return pts, nil
}

// objectiveValue extracts the scalar the search minimizes.
func (o Objective) value(p OperatingPoint) float64 {
	switch o {
	case MinEnergy:
		return p.RelEnergy
	case MinEDP:
		return p.RelEDP
	default:
		return p.PowerW
	}
}

// betterPoint is the deterministic total order of the DVFS search: first the
// objective value, then core MHz, then memory MHz (ascending — on equal
// objective the slower, lower-voltage configuration wins). The previous
// implementation sorted on the objective alone with the unstable sort.Slice,
// so ties between operating points came back in a different order from run
// to run and FindBestConfig was not reproducible.
func betterPoint(a, b OperatingPoint, obj Objective) bool {
	av, bv := obj.value(a), obj.value(b)
	if av != bv { //lint:ignore floateq total-order tie-break: only bitwise-equal objectives may fall through to the config tie-break, or FindBestConfig loses reproducibility
		return av < bv
	}
	//lint:ignore floateq ladder frequencies are exact catalog constants, not computed values
	if a.Config.CoreMHz != b.Config.CoreMHz {
		return a.Config.CoreMHz < b.Config.CoreMHz
	}
	return a.Config.MemMHz < b.Config.MemMHz
}

// FindBestConfig returns the configuration minimizing the objective,
// considering only TDP-feasible points. Ties on the objective are broken
// deterministically (lower core clock, then lower memory clock).
func FindBestConfig(m *Model, dev *Device, p *Profile, obj Objective) (OperatingPoint, error) {
	return FindBestConfigContext(context.Background(), m, dev, p, obj) //lint:ignore ctxflow non-cancellable convenience wrapper; the *Context sibling is the cancellable API
}

// FindBestConfigContext is FindBestConfig under a context. It scans the
// memoized surface directly — no per-call point slice — so a warm search
// is a cache lookup plus one ordered pass over the ladder.
func FindBestConfigContext(ctx context.Context, m *Model, dev *Device, p *Profile, obj Objective) (OperatingPoint, error) {
	s, err := operatingSurface(ctx, m, dev, p)
	if err != nil {
		return OperatingPoint{}, err
	}
	best, found := OperatingPoint{}, false
	for i := 0; i < s.Len(); i++ {
		if s.PowerW[i] > dev.TDP {
			continue
		}
		pt := pointAt(s, i)
		if !found || betterPoint(pt, best, obj) {
			best, found = pt, true
		}
	}
	if !found {
		return OperatingPoint{}, fmt.Errorf("gpupower: no TDP-feasible configuration for %s", p.App.Name)
	}
	return best, nil
}
