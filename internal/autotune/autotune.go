// Package autotune implements the multi-kernel auto-tuning use case the
// paper enables (Section V-B use case 3, citing the authors' PDP 2015
// "Multi-kernel Auto-Tuning on GPUs: Performance and Energy-Aware
// Optimization"): choose a per-kernel V-F configuration for a multi-kernel
// application that minimizes total predicted energy subject to a runtime
// budget — without executing anything beyond the single reference-
// configuration profile per kernel.
//
// Per kernel, every ladder configuration is scored with the power model
// (energy) and the roofline companion (time); dominated points are pruned
// to a Pareto frontier; the per-kernel frontiers are then combined under
// the coupling time constraint. Applications have few kernels (1–3 here,
// single digits in practice), so exact search over frontier products is
// affordable; a Lagrangian-style greedy fallback covers larger counts.
package autotune

import (
	"context"
	"fmt"
	"math"
	"sort"

	"gpupower/internal/backend"
	"gpupower/internal/core"
	"gpupower/internal/hw"
	"gpupower/internal/kernels"
	"gpupower/internal/profiler"
)

// Candidate is one V-F operating point for one kernel.
type Candidate struct {
	Config hw.Config
	// RelTime is the predicted T(cfg)/T(ref) for the kernel.
	RelTime float64
	// RelEnergy is the predicted E(cfg)/E(ref) for the kernel.
	RelEnergy float64
}

// Plan is a complete per-kernel assignment.
type Plan struct {
	App *kernels.App
	// Choice[i] is the configuration selected for App.Kernels[i].
	Choice []Candidate
	// RelTime and RelEnergy are application totals vs running everything at
	// the reference configuration (kernel contributions weighted by their
	// reference execution times).
	RelTime   float64
	RelEnergy float64
}

// Tuner plans per-kernel configurations from a fitted model.
type Tuner struct {
	prof  *profiler.Profiler
	model *core.Model
}

// New creates a tuner for a model fitted on the profiler's device.
func New(p *profiler.Profiler, m *core.Model) (*Tuner, error) {
	if p == nil || m == nil {
		return nil, fmt.Errorf("autotune: nil profiler or model")
	}
	if m.DeviceName != p.HW().Name {
		return nil, fmt.Errorf("autotune: model fitted on %q, device is %q",
			m.DeviceName, p.HW().Name)
	}
	return &Tuner{prof: p, model: m}, nil
}

// kernelFrontier profiles one kernel and returns its Pareto frontier
// (ascending RelTime, strictly descending RelEnergy) plus the kernel's
// reference execution time and power.
func (t *Tuner) kernelFrontier(ctx context.Context, k *kernels.KernelSpec) (frontier []Candidate, refSeconds, refPower float64, err error) {
	dev := t.prof.HW()
	ref := t.model.Ref
	prof, err := t.prof.ProfileApp(ctx, kernels.SingleKernelApp(k), ref)
	if err != nil {
		return nil, 0, 0, err
	}
	u, err := core.AppUtilization(dev, prof, t.model.L2BytesPerCycle)
	if err != nil {
		return nil, 0, 0, err
	}
	refSeconds = prof.Kernels[0].Seconds
	// The per-configuration energy/time columns come from the memoized
	// prediction surface, so re-tuning the same kernel (or sharing kernels
	// across plans) evaluates the model ladder once per utilization.
	s, err := core.Surfaces.Get(ctx, t.model, dev, ref, u)
	if err != nil {
		return nil, 0, 0, err
	}
	if s.RefPower <= 0 {
		return nil, 0, 0, fmt.Errorf("autotune: non-positive reference power for kernel %s", k.Name)
	}
	refPower = s.RefPower

	var all []Candidate
	for i := 0; i < s.Len(); i++ {
		if s.PowerW[i] > dev.TDP {
			continue
		}
		all = append(all, Candidate{
			Config:    s.Configs[i],
			RelTime:   s.RelTime[i],
			RelEnergy: s.RelEnergy[i],
		})
	}
	if len(all) == 0 {
		return nil, 0, 0, fmt.Errorf("autotune: kernel %s has no TDP-feasible configuration", k.Name)
	}
	sort.Slice(all, func(i, j int) bool {
		//lint:ignore floateq total-order tie-break: only bitwise-equal runtimes fall through to the energy key, keeping the Pareto sort reproducible
		if all[i].RelTime != all[j].RelTime {
			return all[i].RelTime < all[j].RelTime
		}
		return all[i].RelEnergy < all[j].RelEnergy
	})
	bestE := math.Inf(1)
	for _, c := range all {
		if c.RelEnergy < bestE-1e-12 {
			frontier = append(frontier, c)
			bestE = c.RelEnergy
		}
	}
	return frontier, refSeconds, refPower, nil
}

// exhaustiveLimit bounds the exact frontier-product search.
const exhaustiveLimit = 200000

// Tune plans per-kernel configurations minimizing total predicted energy
// subject to TotalTime ≤ (1 + slack) × TotalTime(ref). slack = 0.1 allows a
// 10% slowdown; negative slack demands a speedup (feasible only when a
// faster-than-reference configuration exists). Cancellation is checked at
// kernel granularity while profiling.
func (t *Tuner) Tune(ctx context.Context, app *kernels.App, slack float64) (*Plan, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	n := len(app.Kernels)
	frontiers := make([][]Candidate, n)
	refTimes := make([]float64, n)
	refPowers := make([]float64, n)
	var totalRefT float64
	for i, k := range app.Kernels {
		if err := backend.CheckContext(ctx, "autotune: planning "+app.Name); err != nil {
			return nil, err
		}
		f, rt, rp, err := t.kernelFrontier(ctx, k)
		if err != nil {
			return nil, err
		}
		frontiers[i], refTimes[i], refPowers[i] = f, rt, rp
		totalRefT += rt
	}
	budget := (1 + slack) * totalRefT

	size := 1
	for _, f := range frontiers {
		size *= len(f)
		if size > exhaustiveLimit {
			break
		}
	}
	var choice []Candidate
	var err error
	if size <= exhaustiveLimit {
		choice, err = exactSearch(frontiers, refTimes, refPowers, budget)
	} else {
		choice, err = greedySearch(frontiers, refTimes, refPowers, budget)
	}
	if err != nil {
		return nil, err
	}

	plan := &Plan{App: app, Choice: choice}
	var tTot, eTot, eRef float64
	for i, c := range choice {
		tTot += refTimes[i] * c.RelTime
		eTot += refTimes[i] * refPowers[i] * c.RelEnergy
		eRef += refTimes[i] * refPowers[i]
	}
	plan.RelTime = tTot / totalRefT
	plan.RelEnergy = eTot / eRef
	return plan, nil
}

// exactSearch enumerates the frontier product.
func exactSearch(frontiers [][]Candidate, refT, refP []float64, budget float64) ([]Candidate, error) {
	n := len(frontiers)
	idx := make([]int, n)
	best := math.Inf(1)
	var bestChoice []Candidate
	for {
		var tTot, eTot float64
		for i := range frontiers {
			c := frontiers[i][idx[i]]
			tTot += refT[i] * c.RelTime
			eTot += refT[i] * refP[i] * c.RelEnergy
		}
		if tTot <= budget && eTot < best {
			best = eTot
			bestChoice = make([]Candidate, n)
			for i := range frontiers {
				bestChoice[i] = frontiers[i][idx[i]]
			}
		}
		// Advance the odometer.
		k := 0
		for k < n {
			idx[k]++
			if idx[k] < len(frontiers[k]) {
				break
			}
			idx[k] = 0
			k++
		}
		if k == n {
			break
		}
	}
	if bestChoice == nil {
		return nil, fmt.Errorf("autotune: no plan satisfies the time budget")
	}
	return bestChoice, nil
}

// greedySearch starts from each kernel's fastest point and repeatedly takes
// the frontier step with the best energy-saving per unit of added time
// while the budget allows.
func greedySearch(frontiers [][]Candidate, refT, refP []float64, budget float64) ([]Candidate, error) {
	n := len(frontiers)
	idx := make([]int, n) // frontier index per kernel; 0 = fastest
	var tTot float64
	for i := range frontiers {
		tTot += refT[i] * frontiers[i][0].RelTime
	}
	if tTot > budget {
		return nil, fmt.Errorf("autotune: no plan satisfies the time budget")
	}
	for {
		bestI, bestGain := -1, 0.0
		var bestDT float64
		for i := range frontiers {
			if idx[i]+1 >= len(frontiers[i]) {
				continue
			}
			cur, next := frontiers[i][idx[i]], frontiers[i][idx[i]+1]
			dt := refT[i] * (next.RelTime - cur.RelTime)
			de := refT[i] * refP[i] * (cur.RelEnergy - next.RelEnergy)
			if de <= 0 || tTot+dt > budget {
				continue
			}
			gain := de / math.Max(dt, 1e-12)
			if gain > bestGain {
				bestI, bestGain, bestDT = i, gain, dt
			}
		}
		if bestI < 0 {
			break
		}
		idx[bestI]++
		tTot += bestDT
	}
	out := make([]Candidate, n)
	for i := range frontiers {
		out[i] = frontiers[i][idx[i]]
	}
	return out, nil
}
