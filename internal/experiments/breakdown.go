package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"gpupower/internal/core"
	"gpupower/internal/hw"
	"gpupower/internal/suites"
)

// BreakdownTruthResult is an analysis the paper could not run on real
// silicon: the model's per-component power decomposition (Fig. 10) compared
// against the simulator's ground-truth decomposition. On hardware only the
// total is measurable; the simulator makes the component-level claim
// testable.
type BreakdownTruthResult struct {
	Device string
	Config hw.Config
	// MeanAbsErrW[c] is the mean |model − truth| of component c's power
	// over the validation set, W.
	MeanAbsErrW map[hw.Component]float64
	// MeanTruthW[c] is the mean true power of component c, W.
	MeanTruthW map[hw.Component]float64
	// ConstantErrW is the mean absolute error of the constant share, where
	// the truth's constant includes its unmodelled activity term (which the
	// model has no counters for, as the paper notes).
	ConstantErrW float64
	// ConstantTruthW is the mean true constant share (incl. unmodelled), W.
	ConstantTruthW float64
	Apps           int
}

// RunBreakdownTruth compares the model's decomposition against the hidden
// truth for all validation applications at the device's default
// configuration.
func RunBreakdownTruth(ctx context.Context, deviceName string, seed uint64) (*BreakdownTruthResult, error) {
	r, err := SharedRig(deviceName, seed)
	if err != nil {
		return nil, err
	}
	m, err := r.Model(ctx)
	if err != nil {
		return nil, err
	}
	cfg := r.Device.DefaultConfig()
	res := &BreakdownTruthResult{
		Device:      deviceName,
		Config:      cfg,
		MeanAbsErrW: map[hw.Component]float64{},
		MeanTruthW:  map[hw.Component]float64{},
	}
	for _, app := range suites.ValidationSet() {
		prof, err := r.Profiler.ProfileApp(ctx, app.App, m.Ref)
		if err != nil {
			return nil, err
		}
		util, err := core.AppUtilization(r.Device, prof, m.L2BytesPerCycle)
		if err != nil {
			return nil, err
		}
		bd, err := m.Decompose(util, cfg)
		if err != nil {
			return nil, err
		}
		// Ground truth for the first (dominant) kernel.
		if err := r.Sim.SetClocks(cfg); err != nil {
			return nil, err
		}
		run, err := r.Sim.Execute(app.App.Kernels[0])
		if err != nil {
			return nil, err
		}
		truth := r.Sim.TrueBreakdown(run.Exec)
		for _, c := range hw.Components {
			res.MeanAbsErrW[c] += math.Abs(bd.Component[c] - truth.Component[c])
			res.MeanTruthW[c] += truth.Component[c]
		}
		res.ConstantErrW += math.Abs(bd.Constant - (truth.Constant + truth.Unmodelled))
		res.ConstantTruthW += truth.Constant + truth.Unmodelled
		res.Apps++
	}
	inv := 1 / float64(res.Apps)
	for _, c := range hw.Components {
		res.MeanAbsErrW[c] *= inv
		res.MeanTruthW[c] *= inv
	}
	res.ConstantErrW *= inv
	res.ConstantTruthW *= inv
	return res, nil
}

// String renders the component-level validation table.
func (r *BreakdownTruthResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Decomposition vs hidden truth — %s at %v (%d validation apps)\n",
		r.Device, r.Config, r.Apps)
	fmt.Fprintf(&sb, "  %-8s  mean |model-truth|  mean truth\n", "part")
	fmt.Fprintf(&sb, "  %-8s  %13.1f W  %8.1f W (incl. unmodelled activity)\n", "constant", r.ConstantErrW, r.ConstantTruthW)
	for _, c := range hw.Components {
		fmt.Fprintf(&sb, "  %-8s  %13.1f W  %8.1f W\n", c, r.MeanAbsErrW[c], r.MeanTruthW[c])
	}
	return sb.String()
}
