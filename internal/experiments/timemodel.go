package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"gpupower/internal/core"
	"gpupower/internal/hw"
	"gpupower/internal/kernels"
	"gpupower/internal/microbench"
	"gpupower/internal/scaling"
	"gpupower/internal/suites"
)

// TimeModelResult validates the execution-time half of energy-aware DVFS
// (the paper's reference [9]): the learned scaling classifier and the
// analytic roofline, both driven by reference-configuration utilizations,
// against the simulator's true execution times on the validation set.
type TimeModelResult struct {
	Device string
	// Classes is the number of scaling classes the classifier learned.
	Classes int
	// LearnedMAPE/AnalyticMAPE are percentage errors of T(cfg)/T(ref) over
	// all validation apps × configurations.
	LearnedMAPE  float64
	AnalyticMAPE float64
	Points       int
}

// RunTimeModel trains the [9]-style classifier on the microbenchmarks and
// evaluates both time predictors on the validation set (GTX Titan X).
func RunTimeModel(ctx context.Context, seed uint64) (*TimeModelResult, error) {
	const deviceName = "GTX Titan X"
	r, err := SharedRig(deviceName, seed)
	if err != nil {
		return nil, err
	}
	cls, err := scaling.Train(ctx, r.Profiler, microbench.Suite(), 6, seed)
	if err != nil {
		return nil, err
	}
	dev := r.Device
	ref := dev.DefaultConfig()
	l2bpc, err := core.CalibrateL2BytesPerCycle(ctx, r.Profiler, ref)
	if err != nil {
		return nil, err
	}

	runSeconds := func(k *kernels.KernelSpec, cfg hw.Config) (float64, error) {
		if err := r.Sim.SetClocks(cfg); err != nil {
			return 0, err
		}
		run, err := r.Sim.Execute(k)
		if err != nil {
			return 0, err
		}
		return run.Exec.Seconds(), nil
	}

	res := &TimeModelResult{Device: deviceName, Classes: cls.K()}
	var learnedErr, analyticErr float64
	for _, app := range suites.ValidationSet() {
		k := app.App.Kernels[0]
		refT, err := runSeconds(k, ref)
		if err != nil {
			return nil, err
		}
		prof, err := r.Profiler.ProfileApp(ctx, kernels.SingleKernelApp(k), ref)
		if err != nil {
			return nil, err
		}
		u, err := core.AppUtilization(dev, prof, l2bpc)
		if err != nil {
			return nil, err
		}
		for _, cfg := range dev.AllConfigs() {
			trueT, err := runSeconds(k, cfg)
			if err != nil {
				return nil, err
			}
			want := trueT / refT
			learned, err := cls.PredictTimeRatio(u, cfg)
			if err != nil {
				return nil, err
			}
			analytic := scaling.AnalyticTimeRatio(u, ref, cfg)
			learnedErr += math.Abs(learned-want) / want
			analyticErr += math.Abs(analytic-want) / want
			res.Points++
		}
	}
	res.LearnedMAPE = 100 * learnedErr / float64(res.Points)
	res.AnalyticMAPE = 100 * analyticErr / float64(res.Points)
	return res, nil
}

// String renders the time-model validation.
func (r *TimeModelResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Time-scaling validation (%s, companion to the power model — paper ref. [9])\n", r.Device)
	fmt.Fprintf(&sb, "  %d scaling classes, %d (app, config) points\n", r.Classes, r.Points)
	fmt.Fprintf(&sb, "  learned classifier MAPE:  %5.1f%%\n", r.LearnedMAPE)
	fmt.Fprintf(&sb, "  analytic roofline MAPE:   %5.1f%%\n", r.AnalyticMAPE)
	sb.WriteString("  (the analytic model wins in-simulator because the substrate's timing IS a\n")
	sb.WriteString("   roofline; on real silicon the learned classifier is the robust choice)\n")
	return sb.String()
}
