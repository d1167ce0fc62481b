package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"gpupower/internal/backend"
	"gpupower/internal/core"
	"gpupower/internal/governor"
	"gpupower/internal/suites"
)

// SpeedupRow is one before/after wall-clock comparison. Factor is
// BaseNsOp/OptNsOp: how many times faster the optimized path is than the
// baseline it replaced.
type SpeedupRow struct {
	Name      string
	BaseLabel string
	OptLabel  string
	BaseNsOp  float64
	OptNsOp   float64
	Factor    float64
}

// SpeedupResult is the perf-optimization companion experiment: it times the
// hot paths this codebase memoizes (prediction surfaces) and de-allocates
// (workspace-reuse fitting) against their recompute-everything baselines.
// Wall-clock numbers vary machine to machine; the structure and the
// measured operations are fixed, and `make bench-json` serializes the rows
// into BENCH_results.json next to the raw Go benchmark output.
type SpeedupResult struct {
	Device string
	Seed   uint64
	Rows   []SpeedupRow
}

// timeOp reports the mean ns/op of iters calls to f. Cancellation is
// checked once per timing block by the caller, not per call, so the timer
// measures only the operation under study.
func timeOp(iters int, f func() error) (float64, error) {
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters), nil
}

func speedupRow(ctx context.Context, name, baseLabel, optLabel string, baseIters, optIters int, base, opt func() error) (SpeedupRow, error) {
	if err := backend.CheckContext(ctx, "speedup: "+name); err != nil {
		return SpeedupRow{}, err
	}
	bn, err := timeOp(baseIters, base)
	if err != nil {
		return SpeedupRow{}, err
	}
	on, err := timeOp(optIters, opt)
	if err != nil {
		return SpeedupRow{}, err
	}
	row := SpeedupRow{Name: name, BaseLabel: baseLabel, OptLabel: optLabel, BaseNsOp: bn, OptNsOp: on}
	if on > 0 {
		row.Factor = bn / on
	}
	return row, nil
}

// RunSpeedup measures the optimized hot paths against their baselines on
// one device:
//
//   - dvfs-search: a governor decision over the full V-F ladder, cold
//     (surface recomputed per call, the historical per-call cost) vs warm
//     (served from the memoized prediction surface).
//   - single-predict: one model evaluation through the allocation-free
//     direct Model.Predict vs the single-point surface-cache lookup it
//     replaced for single-config requests (the two are pinned bitwise
//     against each other by the surface tests).
//
// Fit time has no row here: perfbench's fit workload is its figure of
// record, and BenchmarkEstimateSerial the one `make bench-json` gates.
func RunSpeedup(ctx context.Context, seed uint64) (*SpeedupResult, error) {
	const deviceName = "GTX Titan X"
	r, err := SharedRig(deviceName, seed)
	if err != nil {
		return nil, err
	}
	m, err := r.Model(ctx)
	if err != nil {
		return nil, err
	}
	out := &SpeedupResult{Device: deviceName, Seed: seed}

	// Utilization for a real workload, profiled once at the reference.
	wl, err := suites.ByShort("LBM")
	if err != nil {
		return nil, err
	}
	prof, err := r.Profiler.ProfileApp(ctx, wl.App, m.Ref)
	if err != nil {
		return nil, err
	}
	u, err := core.AppUtilization(r.Device, prof, m.L2BytesPerCycle)
	if err != nil {
		return nil, err
	}

	// Row 1: full-ladder DVFS decision, cold vs warm surface.
	g, err := governor.New(r.Profiler, m, governor.MinEnergy)
	if err != nil {
		return nil, err
	}
	row, err := speedupRow(ctx, "dvfs-search", "cold surface", "warm surface", 50, 5000,
		func() error {
			m.InvalidateSurfaces() // force a full ladder recompute per call
			_, err := g.DecideContext(ctx, u)
			return err
		},
		func() error {
			_, err := g.DecideContext(ctx, u)
			return err
		})
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, row)

	// Row 2: single-point prediction. PR 7's allocation-free warm
	// Model.Predict (~72 ns) now beats a single-point SurfaceCache lookup
	// (~468 ns: the shard read-lock and map probe dominate one flattened
	// evaluation), so the direct path is the optimized side and the cache
	// lookup is the baseline it replaces — the row used to be written the
	// other way round and reported an inverted 0.15x "speedup". The cache
	// still wins wherever a whole ladder is consumed per decision (the
	// dvfs-search row above); single-config requests in internal/serve
	// already route through the direct PredictAll path for the same reason.
	cfg := r.Device.Ladder()[0]
	row, err = speedupRow(ctx, "single-predict", "surface-cache point lookup", "warm Model.Predict", 20000, 20000,
		func() error {
			_, err := core.Surfaces.Predict(ctx, m, r.Device, m.Ref, u, cfg)
			return err
		},
		func() error {
			_, err := m.Predict(u, cfg)
			return err
		})
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, row)

	return out, nil
}

func (r *SpeedupResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Hot-path speedups (%s, seed %d)\n", r.Device, r.Seed)
	fmt.Fprintf(&sb, "  %-26s %-16s %12s %-14s %12s %8s\n",
		"path", "baseline", "ns/op", "optimized", "ns/op", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-26s %-16s %12.0f %-14s %12.0f %7.1fx\n",
			row.Name, row.BaseLabel, row.BaseNsOp, row.OptLabel, row.OptNsOp, row.Factor)
	}
	return sb.String()
}
