package main

import (
	"context"
	"fmt"

	"gpupower/internal/core"
	"gpupower/internal/fleet"
	"gpupower/internal/hw"
	"gpupower/internal/stats"
	"gpupower/internal/suites"
)

// validation is one device's held-out measurements: for each of the
// paper's validation applications, its utilization profiled at the
// reference configuration and its measured power at every ladder point.
type validation struct {
	configs []hw.Config
	utils   []core.Utilization
	watts   [][]float64
}

// measureValidation profiles and measures the validation set on a member,
// converting events with the L2 peak its training dataset calibrated.
func measureValidation(ctx context.Context, m *fleet.Member, l2BytesPerCycle float64) (*validation, error) {
	ref := m.Device.DefaultConfig()
	v := &validation{configs: m.Device.AllConfigs()}
	for _, app := range suites.ValidationSet() {
		prof, err := m.Profiler.ProfileApp(ctx, app.App, ref)
		if err != nil {
			return nil, fmt.Errorf("validation %s on %s: %w", app.Short, m.Spec, err)
		}
		u, err := core.AppUtilization(m.Device, prof, l2BytesPerCycle)
		if err != nil {
			return nil, err
		}
		row := make([]float64, len(v.configs))
		for j, cfg := range v.configs {
			if row[j], err = m.Profiler.MeasureAppPower(ctx, app.App, cfg); err != nil {
				return nil, fmt.Errorf("validation %s on %s: %w", app.Short, m.Spec, err)
			}
		}
		v.utils = append(v.utils, u)
		v.watts = append(v.watts, row)
	}
	return v, nil
}

// mape is the model's mean absolute percentage error over the validation
// measurements — the paper's accuracy figure.
func (v *validation) mape(m *core.Model) (float64, error) {
	var pred, meas []float64
	for i, u := range v.utils {
		for j, cfg := range v.configs {
			p, err := m.Predict(u, cfg)
			if err != nil {
				return 0, err
			}
			pred = append(pred, p)
			meas = append(meas, v.watts[i][j])
		}
	}
	return stats.MAPE(pred, meas)
}

// catalogMAPE names the per-device accuracy metrics, in catalog order.
var catalogMAPE = map[string]string{
	"Titan Xp":    "core.mape_pct.titan_xp",
	"GTX Titan X": "core.mape_pct.gtx_titan_x",
	"Tesla K40c":  "core.mape_pct.tesla_k40c",
}

// validateModels measures the validation set on each member and records
// the mean error per catalog device as a per-layer metric and the mean over
// all members as model_error_pct. Members and models are index-aligned.
func validateModels(ctx context.Context, b *bench, members []*fleet.Member, models []*core.Model) error {
	var sum float64
	perDevice := make(map[string][]float64)
	for i, m := range members {
		v, err := measureValidation(ctx, m, models[i].L2BytesPerCycle)
		if err != nil {
			return err
		}
		e, err := v.mape(models[i])
		if err != nil {
			return err
		}
		perDevice[m.Device.Name] = append(perDevice[m.Device.Name], e)
		b.report("mape_pct", e, "%", m.Spec.String())
		sum += e
	}
	for name, errs := range perDevice {
		var s float64
		for _, e := range errs {
			s += e
		}
		b.layer[catalogMAPE[name]] = s / float64(len(errs))
	}
	b.e2e["model_error_pct"] = sum / float64(len(members))
	b.report("model_error_pct", b.e2e["model_error_pct"], "%", fmt.Sprintf("mean of %d models", len(members)))
	return nil
}

// fleetSeed is the seed of the fixed silicon the serve and cluster
// workloads run on and every workload's accuracy is measured on. Their
// seed-driven inputs are the requests and the job traffic; the devices they
// serve stay the same, as a deployment's do, and model_error_pct repeats
// exactly whatever the seed.
const fleetSeed = 42

// catalogFleet opens one member of each catalog device on the fixed
// silicon, measures its training dataset and fits its model. Members and
// models are index-aligned.
func catalogFleet(ctx context.Context, b *bench, parent int, op int64) ([]*fleet.Member, []*core.Model, error) {
	sp := b.tr.begin("fleet.open_members", parent, op)
	members, err := fleet.OpenMembers(fleet.Registry(len(hw.AllDevices()), fleetSeed))
	b.tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = b.tr.begin("fleet.build_member_datasets", parent, op)
	datasets, err := fleet.BuildMemberDatasets(ctx, members)
	b.tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = b.tr.begin("fleet.fit_datasets", parent, op)
	models, err := fleet.FitDatasets(ctx, datasets, nil)
	b.tr.end(sp)
	return members, models, err
}
