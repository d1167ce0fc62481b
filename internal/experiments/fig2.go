package experiments

import (
	"context"
	"fmt"
	"strings"

	"gpupower/internal/hw"
	"gpupower/internal/suites"
)

// Fig2Curve is one measured power-vs-core-frequency series at a fixed
// memory frequency.
type Fig2Curve struct {
	MemMHz  float64
	CoreMHz []float64
	PowerW  []float64
}

// Fig2AppResult reproduces one panel of paper Fig. 2 for one application on
// the GTX Titan X: the DVFS power curves at the highest and lowest memory
// frequencies plus the per-component utilizations at the default
// configuration.
type Fig2AppResult struct {
	App          string
	Curves       []Fig2Curve
	Utilization  map[hw.Component]float64
	DefaultPower float64
	// MemDropPercent is the power drop when the memory frequency falls from
	// the default (3505 MHz) to the lowest level (810 MHz) at the default
	// core clock — 52 % for BlackScholes, 24 % for CUTCP in the paper.
	MemDropPercent float64
}

// Fig2Result holds both application panels.
type Fig2Result struct {
	Device string
	Apps   []Fig2AppResult
}

// RunFig2 reproduces Fig. 2 (BlackScholes and CUTCP on the GTX Titan X).
func RunFig2(ctx context.Context, seed uint64) (*Fig2Result, error) {
	const deviceName = "GTX Titan X"
	r, err := SharedRig(deviceName, seed)
	if err != nil {
		return nil, err
	}
	ref := r.Device.DefaultConfig()
	memLevels := []float64{ref.MemMHz, r.Device.MemFreqs[0]} // 3505 and 810 MHz

	out := &Fig2Result{Device: deviceName}
	for _, short := range []string{"BLCKSC", "CUTCP"} {
		app, err := suites.ByShort(short)
		if err != nil {
			return nil, err
		}
		res := Fig2AppResult{App: short}
		for _, fm := range memLevels {
			curve := Fig2Curve{MemMHz: fm}
			for _, fc := range r.Device.CoreFreqs {
				p, err := r.Profiler.MeasureAppPower(ctx, app.App, hw.Config{CoreMHz: fc, MemMHz: fm})
				if err != nil {
					return nil, err
				}
				curve.CoreMHz = append(curve.CoreMHz, fc)
				curve.PowerW = append(curve.PowerW, p)
			}
			res.Curves = append(res.Curves, curve)
		}
		// Per-component utilization at the default configuration, from the
		// ground-truth execution (the paper plots achieved/peak throughput).
		if err := r.Sim.SetClocks(ref); err != nil {
			return nil, err
		}
		run, err := r.Sim.Execute(app.App.Kernels[0])
		if err != nil {
			return nil, err
		}
		res.Utilization = run.Exec.Utilization

		hi, err := r.Profiler.MeasureAppPower(ctx, app.App, ref)
		if err != nil {
			return nil, err
		}
		lo, err := r.Profiler.MeasureAppPower(ctx, app.App, hw.Config{CoreMHz: ref.CoreMHz, MemMHz: r.Device.MemFreqs[0]})
		if err != nil {
			return nil, err
		}
		res.DefaultPower = hi
		res.MemDropPercent = 100 * (hi - lo) / hi
		out.Apps = append(out.Apps, res)
	}
	return out, nil
}

// String renders the Fig. 2 series as text.
func (r *Fig2Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 2 — DVFS impact on power (%s)\n", r.Device)
	for _, app := range r.Apps {
		fmt.Fprintf(&sb, "  %s: %.0f W at default config; memory 3505→810 MHz drop: %.0f%%\n",
			app.App, app.DefaultPower, app.MemDropPercent)
		for _, c := range []hw.Component{hw.SP, hw.Int, hw.DP, hw.SF, hw.Shared, hw.L2, hw.DRAM} {
			if u := app.Utilization[c]; u >= 0.005 {
				fmt.Fprintf(&sb, "    U(%-6s) = %.2f\n", c, u)
			}
		}
		for _, curve := range app.Curves {
			fmt.Fprintf(&sb, "    fmem=%4.0f MHz:", curve.MemMHz)
			for i := range curve.CoreMHz {
				fmt.Fprintf(&sb, " %0.f:%.0fW", curve.CoreMHz[i], curve.PowerW[i])
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}
