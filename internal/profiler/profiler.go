// Package profiler implements the paper's measurement methodology
// (Section V-A): kernels are executed repeatedly until the run spans at
// least one second (so the NVML sensor's refresh period cannot mislead the
// average), every measurement is repeated and the median taken, multi-kernel
// applications weight each kernel's power by its relative execution time,
// and CUPTI events are collected only at the reference configuration.
//
// The profiler is backend-agnostic: it drives any backend.Backend — the
// in-process simulator, a recorded measurement trace, or (on real hardware)
// an NVML/CUPTI exporter — and never peeks behind the measurement seam: it
// links none of the simulator's code.
package profiler

import (
	"context"
	"fmt"
	"time"

	"gpupower/internal/backend"
	"gpupower/internal/hw"
	"gpupower/internal/kernels"
	"gpupower/internal/stats"
)

// Profiler measures power and events through one measurement backend.
type Profiler struct {
	b backend.Backend

	// MinWall is the minimum wall time per power measurement (paper: ≥1 s
	// at the fastest configuration).
	MinWall time.Duration
	// Repeats is the number of measurement repetitions; the median is
	// reported (paper: 10).
	Repeats int
}

// New creates a profiler with the paper's methodology parameters.
func New(b backend.Backend) (*Profiler, error) {
	if b == nil {
		return nil, fmt.Errorf("profiler: nil backend")
	}
	return &Profiler{
		b:       b,
		MinWall: time.Second,
		Repeats: 10,
	}, nil
}

// Backend returns the measurement backend the profiler drives.
func (p *Profiler) Backend() backend.Backend { return p.b }

// HW returns the static hardware description of the profiled device.
func (p *Profiler) HW() *hw.Device { return p.b.Device() }

// setClocks drives the backend's clock interface.
func (p *Profiler) setClocks(cfg hw.Config) error {
	return p.b.SetClocks(cfg)
}

// MeasureKernelPower returns the median-of-Repeats average power of one
// kernel at cfg, in watts, together with the effective (possibly
// TDP-capped) configuration and the single-launch time. Cancellation is
// checked between repetitions.
func (p *Profiler) MeasureKernelPower(ctx context.Context, k *kernels.KernelSpec, cfg hw.Config) (float64, backend.RunInfo, error) {
	if err := p.setClocks(cfg); err != nil {
		return 0, backend.RunInfo{}, err
	}
	if p.Repeats < 1 {
		return 0, backend.RunInfo{}, fmt.Errorf("profiler: Repeats must be >= 1, got %d", p.Repeats)
	}
	vals := make([]float64, 0, p.Repeats)
	var run backend.RunInfo
	for i := 0; i < p.Repeats; i++ {
		// ctx.Err first: the message is built only once the context is dead,
		// not on each of the dataset's tens of thousands of measurements.
		if ctx.Err() != nil {
			return 0, backend.RunInfo{}, backend.CheckContext(ctx, "profiler: measuring "+k.Name)
		}
		v, r, err := p.b.SampledKernelPower(k, p.MinWall)
		if err != nil {
			return 0, backend.RunInfo{}, err
		}
		vals = append(vals, v)
		run = r
	}
	return stats.Median(vals), run, nil
}

// MeasureAppPower measures an application at cfg, weighting each kernel's
// power by its relative execution time (Section V-A).
func (p *Profiler) MeasureAppPower(ctx context.Context, app *kernels.App, cfg hw.Config) (float64, error) {
	if err := app.Validate(); err != nil {
		return 0, err
	}
	var weighted, totalTime float64
	for _, k := range app.Kernels {
		pw, run, err := p.MeasureKernelPower(ctx, k, cfg)
		if err != nil {
			return 0, err
		}
		t := run.Seconds
		weighted += pw * t
		totalTime += t
	}
	if totalTime == 0 { //lint:ignore floateq guard: exactly-zero kernel time means an empty app, which must not divide the weighted mean
		return 0, fmt.Errorf("profiler: app %s has zero total kernel time", app.Name)
	}
	return weighted / totalTime, nil
}

// KernelProfile is the event profile of one kernel at the reference
// configuration.
type KernelProfile struct {
	Spec    *kernels.KernelSpec
	Metrics backend.Metrics
	// Seconds is the single-launch execution time at the reference
	// configuration, used as the weighting for multi-kernel applications.
	Seconds float64
}

// AppProfile is the event profile of an application at the reference
// configuration — everything the model needs to predict the application's
// power at every other configuration.
type AppProfile struct {
	App       *kernels.App
	RefConfig hw.Config
	Kernels   []KernelProfile
}

// ProfileApp collects CUPTI events for every kernel of the application at
// the reference configuration. Cancellation is checked between kernels.
func (p *Profiler) ProfileApp(ctx context.Context, app *kernels.App, ref hw.Config) (*AppProfile, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if err := p.setClocks(ref); err != nil {
		return nil, err
	}
	prof := &AppProfile{App: app, RefConfig: ref}
	for _, k := range app.Kernels {
		if err := backend.CheckContext(ctx, "profiler: profiling "+app.Name); err != nil {
			return nil, err
		}
		metrics, run, err := p.b.CollectMetrics(k)
		if err != nil {
			return nil, err
		}
		if run.Effective != ref {
			// A TDP-capped reference run would corrupt the event-to-cycle
			// relation the model assumes; the paper's reference configs
			// never throttle, so surface it loudly.
			return nil, fmt.Errorf("profiler: kernel %s at reference %v (ran at %v): %w",
				k.Name, ref, run.Effective, backend.ErrThrottled)
		}
		prof.Kernels = append(prof.Kernels, KernelProfile{
			Spec:    k,
			Metrics: metrics,
			Seconds: run.Seconds,
		})
	}
	return prof, nil
}

// MeasureIdlePower measures the awake-but-idle device at cfg.
func (p *Profiler) MeasureIdlePower(ctx context.Context, cfg hw.Config) (float64, error) {
	if err := p.setClocks(cfg); err != nil {
		return 0, err
	}
	vals := make([]float64, 0, p.Repeats)
	for i := 0; i < p.Repeats; i++ {
		if err := backend.CheckContext(ctx, "profiler: measuring idle power"); err != nil {
			return 0, err
		}
		v, err := p.b.SampledIdlePower(p.MinWall)
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return stats.Median(vals), nil
}

// RunKernelAt executes one kernel launch at cfg through the backend and
// returns its measured energy (J) and duration (s) — the governed-run and
// time-scaling measurement.
func (p *Profiler) RunKernelAt(k *kernels.KernelSpec, cfg hw.Config) (energyJ, seconds float64, err error) {
	if err := p.setClocks(cfg); err != nil {
		return 0, 0, err
	}
	e, run, err := p.b.RunKernel(k)
	if err != nil {
		return 0, 0, err
	}
	return e, run.Seconds, nil
}
