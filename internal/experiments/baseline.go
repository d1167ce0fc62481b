package experiments

import (
	"context"
	"fmt"
	"strings"

	"gpupower/internal/baselines"
	"gpupower/internal/core"
	"gpupower/internal/hw"
	"gpupower/internal/stats"
	"gpupower/internal/suites"
)

// predictFn is any model evaluated by the shared validation loop.
type predictFn func(in baselines.Input, cfg hw.Config) (float64, error)

// evaluateOnValidation computes the MAPE of a predictor over the full
// validation set × configuration space of a rig.
func evaluateOnValidation(ctx context.Context, r *Rig, ref hw.Config, l2bpc float64, f predictFn) (float64, error) {
	var pred, meas []float64
	for _, app := range suites.ValidationSet() {
		prof, err := r.Profiler.ProfileApp(ctx, app.App, ref)
		if err != nil {
			return 0, err
		}
		util, err := core.AppUtilization(r.Device, prof, l2bpc)
		if err != nil {
			return 0, err
		}
		refPower, err := r.Profiler.MeasureAppPower(ctx, app.App, ref)
		if err != nil {
			return 0, err
		}
		in := baselines.Input{Util: util, RefPower: refPower}
		for _, cfg := range r.Device.AllConfigs() {
			p, err := f(in, cfg)
			if err != nil {
				return 0, err
			}
			q, err := r.Profiler.MeasureAppPower(ctx, app.App, cfg)
			if err != nil {
				return 0, err
			}
			pred = append(pred, p)
			meas = append(meas, q)
		}
	}
	return stats.MAPE(pred, meas)
}

// BaselineRow is one model's MAE on one device.
type BaselineRow struct {
	Model string
	MAE   float64
}

// BaselineDeviceResult compares the proposed model against the baselines on
// one device.
type BaselineDeviceResult struct {
	Device string
	Rows   []BaselineRow
}

// BaselineResult aggregates all devices.
type BaselineResult struct {
	Devices []BaselineDeviceResult
}

// RunBaselinesDevice fits and evaluates every comparator on one device.
func RunBaselinesDevice(ctx context.Context, deviceName string, seed uint64) (*BaselineDeviceResult, error) {
	r, err := SharedRig(deviceName, seed)
	if err != nil {
		return nil, err
	}
	d, err := r.Dataset(ctx)
	if err != nil {
		return nil, err
	}
	proposed, err := r.Model(ctx)
	if err != nil {
		return nil, err
	}

	res := &BaselineDeviceResult{Device: deviceName}
	add := func(name string, f predictFn) error {
		mae, err := evaluateOnValidation(ctx, r, d.Ref, d.L2BytesPerCycle, f)
		if err != nil {
			return fmt.Errorf("baselines: %s on %s: %w", name, deviceName, err)
		}
		res.Rows = append(res.Rows, BaselineRow{Model: name, MAE: mae})
		return nil
	}

	if err := add("Proposed (DVFS-aware, voltage-estimating)", func(in baselines.Input, cfg hw.Config) (float64, error) {
		return proposed.Predict(in.Util, cfg)
	}); err != nil {
		return nil, err
	}

	abe, err := baselines.FitAbe(d)
	if err != nil {
		return nil, err
	}
	if err := add(abe.Name(), abe.Predict); err != nil {
		return nil, err
	}

	lf, err := baselines.FitLinearFreq(ctx, d)
	if err != nil {
		return nil, err
	}
	if err := add(lf.Name(), lf.Predict); err != nil {
		return nil, err
	}

	fx, err := baselines.FitFixedConfig(d)
	if err != nil {
		return nil, err
	}
	if err := add(fx.Name(), fx.Predict); err != nil {
		return nil, err
	}

	wu, err := baselines.FitWu(d, 5, seed)
	if err != nil {
		return nil, err
	}
	if err := add(wu.Name(), wu.Predict); err != nil {
		return nil, err
	}
	return res, nil
}

// RunBaselines runs the baseline comparison on all three devices.
func RunBaselines(ctx context.Context, seed uint64) (*BaselineResult, error) {
	out := &BaselineResult{}
	for _, name := range AllDeviceNames() {
		r, err := RunBaselinesDevice(ctx, name, seed)
		if err != nil {
			return nil, err
		}
		out.Devices = append(out.Devices, *r)
	}
	return out, nil
}

// String renders the comparison table.
func (r *BaselineResult) String() string {
	var sb strings.Builder
	sb.WriteString("Baseline comparison — validation-set MAE over all V-F configurations\n")
	sb.WriteString("(paper context: Abe et al. report 15/14/23.5% on Tesla/Fermi/Kepler;\n")
	sb.WriteString(" the proposed model reports 7/6/12% on Pascal/Maxwell/Kepler)\n")
	for _, d := range r.Devices {
		fmt.Fprintf(&sb, "  %s:\n", d.Device)
		for _, row := range d.Rows {
			fmt.Fprintf(&sb, "    %-48s %6.1f%%\n", row.Model, row.MAE)
		}
	}
	return sb.String()
}
