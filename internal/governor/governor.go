// Package governor implements the paper's primary future-work direction
// (Section VII): applying the DVFS-aware power model in real time "by
// taking advantage of the iterative nature of many of the most common GPU
// applications, by measuring the performance events during the first call
// to a GPU kernel and then using the power prediction to determine the
// frequency/voltage configuration that best suits that kernel".
//
// The governor runs an iterative application on the simulated device:
// iteration 1 executes at the reference configuration while events are
// collected; the model then evaluates the whole V-F space and the governor
// applies the policy-optimal configuration for the remaining iterations.
// Per-kernel decisions are cached, so multi-kernel applications converge
// after one profiling pass per kernel.
package governor

import (
	"context"
	"fmt"
	"strings"

	"gpupower/internal/backend"
	"gpupower/internal/core"
	"gpupower/internal/hw"
	"gpupower/internal/kernels"
	"gpupower/internal/profiler"
)

// Policy selects what the governor optimizes.
type Policy int

const (
	// MinEnergy minimizes predicted energy (power × estimated time).
	MinEnergy Policy = iota
	// MinEDP minimizes the predicted energy-delay product.
	MinEDP
	// MaxPerfUnderCap maximizes performance subject to a power cap:
	// the fastest configuration whose predicted power stays below the cap.
	MaxPerfUnderCap
)

func (p Policy) String() string {
	switch p {
	case MinEnergy:
		return "min-energy"
	case MinEDP:
		return "min-EDP"
	case MaxPerfUnderCap:
		return "max-perf-under-cap"
	default:
		// Exhaustive default: an out-of-range value still prints something
		// diagnosable rather than an empty string.
		return fmt.Sprintf("unknown(%d)", int(p))
	}
}

// ParsePolicy maps a policy's String() form (case-insensitive) back to the
// Policy — the serving layer's wire format for /v1/govern requests.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range []Policy{MinEnergy, MinEDP, MaxPerfUnderCap} {
		if strings.EqualFold(s, p.String()) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("governor: unknown policy %q (want min-energy, min-EDP or max-perf-under-cap)", s)
}

// Score evaluates one ladder point (predicted power, relative time) under
// the policy; lower is better.
func (p Policy) Score(power, relTime float64) (float64, error) {
	switch p {
	case MinEnergy:
		return power * relTime, nil
	case MinEDP:
		return power * relTime * relTime, nil
	case MaxPerfUnderCap:
		return relTime, nil
	default:
		//gpower:allocs cold error path: only an out-of-range policy value lands here
		return 0, fmt.Errorf("governor: unknown policy %v", p)
	}
}

// Governor drives per-kernel DVFS decisions on one device.
type Governor struct {
	prof   *profiler.Profiler
	model  *core.Model
	policy Policy

	// PowerCap is the cap for MaxPerfUnderCap, W. Zero means the device TDP.
	PowerCap float64

	// decisions caches the chosen configuration per kernel name.
	decisions map[string]hw.Config
	// utils caches the first-iteration utilization per kernel name.
	utils map[string]core.Utilization
}

// New creates a governor for a fitted model on the profiler's device.
func New(p *profiler.Profiler, m *core.Model, policy Policy) (*Governor, error) {
	if p == nil || m == nil {
		return nil, fmt.Errorf("governor: nil profiler or model")
	}
	if m.DeviceName != p.HW().Name {
		return nil, fmt.Errorf("governor: model fitted on %q, device is %q",
			m.DeviceName, p.HW().Name)
	}
	return &Governor{
		prof:      p,
		model:     m,
		policy:    policy,
		decisions: map[string]hw.Config{},
		utils:     map[string]core.Utilization{},
	}, nil
}

// DecideContext returns the governor's configuration for a kernel with
// known utilization, per the active policy. It delegates to the free Decide
// function — the shared decision engine behind both the in-process governor
// and gpowerd's /v1/govern endpoint.
func (g *Governor) DecideContext(ctx context.Context, u core.Utilization) (hw.Config, error) {
	return Decide(ctx, g.model, g.prof.HW(), g.policy, g.PowerCap, u)
}

// Decide returns the policy-optimal configuration for a kernel with known
// utilization on dev under a fitted model — the standalone decision engine
// the serving layer calls without holding a profiler. A powerCap ≤ 0 means
// the device TDP.
//
// The per-configuration power and relative-time columns come from the
// process-wide prediction-surface cache: the first decision for a
// utilization vector computes the ladder once, and every subsequent
// decision — repeated Step calls, policy re-evaluation, govern requests —
// reduces to one cache lookup plus a linear scan. The scan order and the
// strict `score < best` comparison are those of the historical per-point
// loop, so the chosen configuration is byte-identical.
func Decide(ctx context.Context, m *core.Model, dev *hw.Device, policy Policy, powerCap float64, u core.Utilization) (hw.Config, error) {
	cap := powerCap
	if cap <= 0 {
		cap = dev.TDP
	}
	s, err := core.Surfaces.Get(ctx, m, dev, m.Ref, u)
	if err != nil {
		return hw.Config{}, err
	}
	i, err := DecideOnSurface(s, policy, cap)
	if err != nil {
		return hw.Config{}, err
	}
	return s.Configs[i], nil
}

// DecideOnSurface returns the ladder index of the policy-optimal point on a
// memoized prediction surface: the lowest-score point whose predicted power
// stays at or below powerCap (which must already be resolved; callers pass
// the device TDP for "no cap"). It is the scan both Decide and the cluster
// simulator's decision cache share — the strict `score < best` comparison
// and the ladder order are the historical per-point loop's, so the chosen
// configuration is byte-identical to the pre-surface governor.
//
//gpower:noalloc the per-decision scan over a memoized surface is pure arithmetic
func DecideOnSurface(s *core.Surface, policy Policy, powerCap float64) (int, error) {
	return DecideOnSurfaceBounded(s, policy, powerCap, 0)
}

// DecideOnSurfaceBounded is DecideOnSurface with an optional execution-time
// bound: when maxRelTime > 0, ladder points whose predicted relative time
// exceeds it are rejected before scoring. This is the deadline-aware
// variant the cluster simulator decides with — "the cheapest configuration
// that cannot stretch a job past its slack" — and it degrades to the plain
// scan when the bound is zero.
//
//gpower:noalloc the deadline-aware scan allocates only when no ladder point is feasible
func DecideOnSurfaceBounded(s *core.Surface, policy Policy, powerCap, maxRelTime float64) (int, error) {
	best := -1
	bestScore := 0.0
	for i := 0; i < s.Len(); i++ {
		p := s.PowerW[i]
		if p > powerCap {
			continue
		}
		rt := s.RelTime[i]
		if maxRelTime > 0 && rt > maxRelTime {
			continue
		}
		score, err := policy.Score(p, rt)
		if err != nil {
			return -1, err
		}
		if best < 0 || score < bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		if maxRelTime > 0 {
			//gpower:allocs infeasible-cap error path: no ladder point survives the cap and deadline filters
			return -1, fmt.Errorf("governor: no configuration satisfies the %g W cap within %gx relative time", powerCap, maxRelTime)
		}
		//gpower:allocs infeasible-cap error path: no ladder point survives the cap filter
		return -1, fmt.Errorf("governor: no configuration satisfies the %g W cap", powerCap)
	}
	return best, nil
}

// IterationRecord is one application iteration as executed by the governor.
type IterationRecord struct {
	Iteration int
	Config    hw.Config // requested configuration
	EnergyJ   float64
	Seconds   float64
	Profiling bool // true when this iteration collected events at the reference
}

// Report summarizes a governed run against the always-default baseline.
type Report struct {
	App        string
	Policy     Policy
	Iterations int

	Records []IterationRecord

	// Governed totals.
	EnergyJ float64
	Seconds float64
	// Baseline totals (every iteration at the reference configuration).
	BaselineEnergyJ float64
	BaselineSeconds float64
}

// EnergySavingsPercent is the governed run's energy saving vs the baseline.
func (r *Report) EnergySavingsPercent() float64 {
	if r.BaselineEnergyJ == 0 { //lint:ignore floateq guard: a zero baseline means "no baseline run", and the saving is undefined rather than divided
		return 0
	}
	return 100 * (r.BaselineEnergyJ - r.EnergyJ) / r.BaselineEnergyJ
}

// SlowdownPercent is the governed run's time increase vs the baseline
// (negative values mean the governed run was faster).
func (r *Report) SlowdownPercent() float64 {
	if r.BaselineSeconds == 0 { //lint:ignore floateq guard: a zero baseline means "no baseline run", and the slowdown is undefined rather than divided
		return 0
	}
	return 100 * (r.Seconds - r.BaselineSeconds) / r.BaselineSeconds
}

// runKernelAt executes one kernel launch at cfg through the measurement
// backend and returns its measured energy and duration (what a wattmeter
// integrates).
func (g *Governor) runKernelAt(k *kernels.KernelSpec, cfg hw.Config) (energyJ, seconds float64, err error) {
	return g.prof.RunKernelAt(k, cfg)
}

// RunApp executes an iterative application for the given iteration count
// under governor control, and the same workload at the reference
// configuration as the baseline. Cancellation is checked at iteration
// granularity.
func (g *Governor) RunApp(ctx context.Context, app *kernels.App, iterations int) (*Report, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if iterations < 1 {
		return nil, fmt.Errorf("governor: iterations must be >= 1, got %d", iterations)
	}
	rep := &Report{App: app.Name, Policy: g.policy, Iterations: iterations}

	for iter := 1; iter <= iterations; iter++ {
		if err := backend.CheckContext(ctx, fmt.Sprintf("governor: iteration %d of %s", iter, app.Name)); err != nil {
			return nil, err
		}
		for _, k := range app.Kernels {
			cfg, profiling, err := g.configFor(ctx, k)
			if err != nil {
				return nil, err
			}
			e, s, err := g.runKernelAt(k, cfg)
			if err != nil {
				return nil, err
			}
			rep.Records = append(rep.Records, IterationRecord{
				Iteration: iter, Config: cfg, EnergyJ: e, Seconds: s, Profiling: profiling,
			})
			rep.EnergyJ += e
			rep.Seconds += s

			be, bs, err := g.runKernelAt(k, g.model.Ref)
			if err != nil {
				return nil, err
			}
			rep.BaselineEnergyJ += be
			rep.BaselineSeconds += bs
		}
	}
	return rep, nil
}

// configFor returns the configuration for one kernel launch, profiling it
// at the reference configuration on first sight.
func (g *Governor) configFor(ctx context.Context, k *kernels.KernelSpec) (hw.Config, bool, error) {
	if cfg, ok := g.decisions[k.Name]; ok {
		return cfg, false, nil
	}
	// First call: run at the reference configuration and collect events.
	prof, err := g.prof.ProfileApp(ctx, kernels.SingleKernelApp(k), g.model.Ref)
	if err != nil {
		return hw.Config{}, false, err
	}
	u, err := core.AppUtilization(g.prof.HW(), prof, g.model.L2BytesPerCycle)
	if err != nil {
		return hw.Config{}, false, err
	}
	g.utils[k.Name] = u
	cfg, err := g.DecideContext(ctx, u)
	if err != nil {
		return hw.Config{}, false, err
	}
	g.decisions[k.Name] = cfg
	// The profiling launch itself happens at the reference configuration.
	return g.model.Ref, true, nil
}

// Decision returns the cached configuration for a kernel, if decided.
func (g *Governor) Decision(kernelName string) (hw.Config, bool) {
	cfg, ok := g.decisions[kernelName]
	return cfg, ok
}

// Utilization returns the cached first-iteration utilization for a kernel.
func (g *Governor) Utilization(kernelName string) (core.Utilization, bool) {
	u, ok := g.utils[kernelName]
	return u, ok
}
