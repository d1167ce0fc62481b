package silicon

import (
	"fmt"

	"gpupower/internal/hw"
	"gpupower/internal/kernels"
)

// Truth holds the hidden electrical ground truth of one die. The functional
// form follows the physics of Eqs. 1–2 of the paper (dynamic power ∝ a·C·V²·f,
// static power ∝ V), but deliberately includes terms *outside* the family the
// estimator fits — a superlinear leakage correction and an unmodelled-activity
// component (texture units, instruction caches, schedulers) — so that the
// fitted model's accuracy figures are earned, not tautological.
type Truth struct {
	Device *hw.Device

	// Static (leakage) power of each domain at the reference voltage, W.
	StaticCore float64
	StaticMem  float64

	// Idle dynamic coefficients: power per MHz at reference voltage that
	// does not depend on utilization (clock trees, idle pipeline toggling).
	IdlePerCoreMHz float64
	IdlePerMemMHz  float64

	// Gamma is the per-component dynamic coefficient: W per MHz of the
	// component's domain at full utilization and reference voltage.
	Gamma map[hw.Component]float64

	// CoreV and MemV are the true rail curves. Real drivers set these
	// automatically and do not report them (Section II-A).
	CoreV *VoltageCurve
	MemV  *VoltageCurve

	// LeakageKappa bends static power superlinearly in voltage:
	// P_static ∝ V·(1 + κ·(V̄−1)). κ > 0 models the exponential leakage
	// dependence on supply voltage that the paper's linear-in-V static term
	// approximates.
	LeakageKappa float64

	// UnmodelledPerMHz is the coefficient of the activity-proportional power
	// of components the model has no counters for (paper Section V-B:
	// "power consumptions of other non-modelled GPU components").
	UnmodelledPerMHz float64
}

// Validate checks the ground truth for physical consistency.
func (t *Truth) Validate() error {
	if t.Device == nil {
		return fmt.Errorf("silicon: truth has no device")
	}
	if t.StaticCore < 0 || t.StaticMem < 0 || t.IdlePerCoreMHz < 0 || t.IdlePerMemMHz < 0 {
		return fmt.Errorf("silicon: %s: negative static/idle coefficients", t.Device.Name)
	}
	for _, c := range hw.Components {
		if t.Gamma[c] < 0 {
			return fmt.Errorf("silicon: %s: negative gamma for %s", t.Device.Name, c)
		}
	}
	if t.CoreV == nil || t.MemV == nil {
		return fmt.Errorf("silicon: %s: missing voltage curves", t.Device.Name)
	}
	return nil
}

// CoreVNorm returns the true normalized core voltage V̄core(f) relative to
// the device's default core clock.
func (t *Truth) CoreVNorm(fcMHz float64) float64 {
	return t.CoreV.NormalizedAt(fcMHz, t.Device.DefaultCore)
}

// MemVNorm returns the true normalized memory voltage V̄mem(f) relative to
// the device's default memory clock.
func (t *Truth) MemVNorm(fmMHz float64) float64 {
	return t.MemV.NormalizedAt(fmMHz, t.Device.DefaultMem)
}

// PowerBreakdown is the true per-part power consumption, W.
type PowerBreakdown struct {
	Constant   float64                  // static + idle V-F power of both domains
	Component  map[hw.Component]float64 // dynamic power of each modelled component
	Unmodelled float64                  // activity power with no counters
}

// Total returns the total power of the breakdown. The component map is
// folded in canonical order so the ground-truth total is bitwise-identical
// run-to-run (the same determinism discipline the estimator side follows).
func (b *PowerBreakdown) Total() float64 {
	return b.Constant + b.Unmodelled + hw.SumComponents(b.Component)
}

// Power evaluates the true average power for an execution (kernel at a
// configuration with its true utilizations).
func (t *Truth) Power(e *Execution) float64 {
	return t.PowerFromUtilization(e.Config, e.Utilization)
}

// Breakdown evaluates the true per-component power decomposition for an
// execution.
func (t *Truth) Breakdown(e *Execution) *PowerBreakdown {
	return t.BreakdownFromUtilization(e.Config, e.Utilization)
}

// PowerFromUtilization evaluates the true power at configuration cfg given
// per-component utilizations.
func (t *Truth) PowerFromUtilization(cfg hw.Config, util map[hw.Component]float64) float64 {
	return t.power(cfg, func(c hw.Component) float64 { return util[c] })
}

// Launch evaluates one launch of kernel k at cfg without building its
// Execution: the time Simulate(t.Device, k, cfg).Seconds() reports and the
// true power Power gives that execution, both to the bit. The simulator's
// measurement loop, which launches every kernel several times at every
// configuration, runs on it.
func (t *Truth) Launch(k *kernels.KernelSpec, cfg hw.Config) (seconds, watts float64, err error) {
	total, err := kernelSeconds(t.Device, k, cfg)
	if err != nil {
		return 0, 0, err
	}
	watts = t.power(cfg, func(c hw.Component) float64 {
		return componentTime(t.Device, k, cfg, c) / total
	})
	return executionTime(total).Seconds(), watts, nil
}

// power is BreakdownFromUtilization(cfg, util).Total() to the bit — the
// same terms, rounded and summed in the same order — without building the
// breakdown, for the utilization util(c) of each component.
func (t *Truth) power(cfg hw.Config, util func(hw.Component) float64) float64 {
	vc, vm, constant := t.constantPower(cfg)
	var maxU, dynamic float64
	for _, c := range hw.Components {
		u := util(c)
		if u < 0 {
			u = 0
		}
		if u > maxU {
			maxU = u
		}
		// The conversion rounds each term before the sum, as storing it
		// in the breakdown's map does; it keeps the product from fusing
		// with the addition on FMA targets.
		dynamic += float64(t.componentPower(cfg, vc, vm, c, u))
	}
	return constant + float64(t.unmodelledPower(cfg, vc, maxU)) + dynamic
}

// BreakdownFromUtilization decomposes the true power at cfg for the given
// utilizations.
func (t *Truth) BreakdownFromUtilization(cfg hw.Config, util map[hw.Component]float64) *PowerBreakdown {
	vc, vm, constant := t.constantPower(cfg)
	b := &PowerBreakdown{
		Constant:  constant,
		Component: make(map[hw.Component]float64, len(hw.Components)),
	}
	var maxU float64
	for _, c := range hw.Components {
		u := util[c]
		if u < 0 {
			u = 0
		}
		if u > maxU {
			maxU = u
		}
		b.Component[c] = t.componentPower(cfg, vc, vm, c, u)
	}
	b.Unmodelled = t.unmodelledPower(cfg, vc, maxU)
	return b
}

// constantPower returns the true normalized rail voltages at cfg and the
// static plus idle power of both domains there.
func (t *Truth) constantPower(cfg hw.Config) (vc, vm, constant float64) {
	vc = t.CoreVNorm(cfg.CoreMHz)
	vm = t.MemVNorm(cfg.MemMHz)
	staticCore := t.StaticCore * vc * (1 + t.LeakageKappa*(vc-1))
	staticMem := t.StaticMem * vm * (1 + t.LeakageKappa*(vm-1))
	idle := vc*vc*cfg.CoreMHz*t.IdlePerCoreMHz + vm*vm*cfg.MemMHz*t.IdlePerMemMHz
	return vc, vm, staticCore + staticMem + idle
}

// componentPower is component c's dynamic power at cfg, clocked by its
// domain, for rail voltages vc, vm and utilization u.
func (t *Truth) componentPower(cfg hw.Config, vc, vm float64, c hw.Component, u float64) float64 {
	if hw.DomainOf(c) == hw.MemoryDomain {
		return vm * vm * cfg.MemMHz * t.Gamma[c] * u
	}
	return vc * vc * cfg.CoreMHz * t.Gamma[c] * u
}

// unmodelledPower is the power of the front-end and texture activity the
// model has no counters for; it tracks the busiest component's utilization
// maxU, in the core domain.
func (t *Truth) unmodelledPower(cfg hw.Config, vc, maxU float64) float64 {
	return vc * vc * cfg.CoreMHz * t.UnmodelledPerMHz * maxU
}

// IdlePower returns the true power with no kernel executing at cfg.
func (t *Truth) IdlePower(cfg hw.Config) float64 {
	return t.PowerFromUtilization(cfg, nil)
}
