// Package scaling implements the performance (execution-time) side the
// paper pairs its power model with: the authors' earlier "Performance and
// Power-Aware Classification for Frequency Scaling of GPGPU Applications"
// (HeteroPar 2016, the paper's reference [9]). An application's
// time-scaling across V-F configurations is predicted from the same
// reference-configuration utilizations the power model uses, two ways:
//
//   - Analytic: the roofline companion (core.EstimateRelativeTime) — the
//     bound domain's share of the critical path stretches with 1/f.
//   - Learned: the [9]-style classifier — training kernels are clustered
//     by their *measured* time-scaling curves (k-means), and a
//     nearest-centroid classifier on utilization features assigns unseen
//     applications to a scaling class.
//
// Energy-aware DVFS needs both halves (E = P × T); the experiments package
// validates the time half against the simulator's ground truth.
package scaling

import (
	"context"
	"fmt"

	"gpupower/internal/backend"
	"gpupower/internal/core"
	"gpupower/internal/hw"
	"gpupower/internal/kernels"
	"gpupower/internal/microbench"
	"gpupower/internal/profiler"
)

// Classifier is the learned time-scaling model: scaling classes over
// measured time ratios T(Configs[f])/T(Ref).
type Classifier struct {
	Configs  []hw.Config
	Ref      hw.Config
	RefIndex int
	Classes
	// configIdx indexes Configs so PredictTimeRatio is one map lookup per
	// call instead of a linear ladder scan (the classifier sits on the
	// same high-query-rate serving path as the prediction surfaces).
	configIdx map[hw.Config]int
}

// Train builds the classifier from the microbenchmark suite: each training
// kernel's true time-scaling curve is measured across every configuration
// (a single launch per configuration suffices — execution time, unlike the
// power sensor, is exact), its utilization comes from reference-
// configuration events, and the curves are clustered into k classes.
func Train(ctx context.Context, p *profiler.Profiler, suite []microbench.Benchmark, k int, seed uint64) (*Classifier, error) {
	if k < 1 {
		return nil, fmt.Errorf("scaling: class count %d must be >= 1", k)
	}
	dev := p.HW()
	ref := dev.DefaultConfig()
	configs := dev.AllConfigs()
	refIdx := -1
	for i, cfg := range configs {
		if cfg == ref {
			refIdx = i
		}
	}
	if refIdx < 0 {
		return nil, fmt.Errorf("scaling: reference configuration missing from ladder")
	}
	l2bpc, err := core.CalibrateL2BytesPerCycle(ctx, p, ref)
	if err != nil {
		return nil, err
	}

	var curves [][]float64
	var utils []core.Utilization
	for _, b := range suite {
		if err := backend.CheckContext(ctx, "scaling: training classifier"); err != nil {
			return nil, err
		}
		refRun, err := runAt(p, b.Kernel, ref)
		if err != nil {
			return nil, err
		}
		if refRun <= 0 {
			continue // the Idle pseudo-benchmark has no meaningful scaling
		}
		curve := make([]float64, len(configs))
		usable := true
		for fi, cfg := range configs {
			t, err := runAt(p, b.Kernel, cfg)
			if err != nil {
				return nil, err
			}
			if t <= 0 {
				usable = false
				break
			}
			curve[fi] = t / refRun
		}
		if !usable {
			continue
		}
		prof, err := p.ProfileApp(ctx, kernels.SingleKernelApp(b.Kernel), ref)
		if err != nil {
			return nil, err
		}
		u, err := core.AppUtilization(dev, prof, l2bpc)
		if err != nil {
			return nil, err
		}
		curves = append(curves, curve)
		utils = append(utils, u)
	}
	classes, err := Learn(curves, utils, k, seed)
	if err != nil {
		return nil, err
	}
	return &Classifier{Configs: configs, Ref: ref, RefIndex: refIdx, Classes: classes, configIdx: indexConfigs(configs)}, nil
}

// runAt executes one launch at cfg through the measurement backend and
// returns the execution time in seconds.
func runAt(p *profiler.Profiler, k *kernels.KernelSpec, cfg hw.Config) (float64, error) {
	_, seconds, err := p.RunKernelAt(k, cfg)
	return seconds, err
}

// indexConfigs builds the ladder-position index used by PredictTimeRatio.
func indexConfigs(configs []hw.Config) map[hw.Config]int {
	idx := make(map[hw.Config]int, len(configs))
	for i, cfg := range configs {
		idx[cfg] = i
	}
	return idx
}

// PredictTimeRatio predicts T(cfg)/T(ref) for an application with the given
// reference-configuration utilizations. One index lookup plus the
// nearest-centroid scan; no allocation.
func (c *Classifier) PredictTimeRatio(u core.Utilization, cfg hw.Config) (float64, error) {
	fi, ok := c.configIdx[cfg]
	if !ok {
		return 0, fmt.Errorf("scaling: configuration %v unknown to classifier", cfg)
	}
	return c.Factor(c.Classify(u), fi), nil
}

// AnalyticTimeRatio is the roofline companion, exposed alongside the
// classifier for comparison.
func AnalyticTimeRatio(u core.Utilization, ref, cfg hw.Config) float64 {
	return core.EstimateRelativeTime(u, ref, cfg)
}
