// Package gpupower is a Go reproduction of "GPGPU Power Modeling for
// Multi-Domain Voltage-Frequency Scaling" (Guerreiro, Ilic, Roma, Tomás —
// HPCA 2018): a DVFS-aware GPU power model that, from hardware performance
// events measured at a single reference voltage-frequency configuration,
// predicts total and per-component GPU power at every (f_core, f_mem)
// configuration — including the non-linear, unobservable scaling of the
// core voltage with frequency.
//
// Because the original system requires NVIDIA GPUs, NVML and CUPTI, this
// reproduction ships a behavioural simulator of the paper's three devices
// (Titan Xp, GTX Titan X, Tesla K40c) with a hidden electrical ground truth;
// the model-fitting pipeline observes the simulated dies only through
// NVML/CUPTI-like measurement façades, exactly as the paper observes real
// silicon. The pipeline itself is backend-agnostic (see Backend): it runs
// equally over the simulator or a recorded measurement trace (Record /
// OpenTrace), because the model is fitted from measurements only. See
// DESIGN.md for the substitution argument and the per-experiment index.
//
// Typical use:
//
//	gpu, err := gpupower.Open(gpupower.GTXTitanX, 42)
//	model, err := gpu.FitPowerModel()           // 83 microbenchmarks + Section III-D estimator
//	prof, err := gpu.Profile(app)               // events at the reference configuration only
//	watts, err := model.Predict(prof.Utilization, gpupower.Config{CoreMHz: 595, MemMHz: 810})
package gpupower

import (
	"context"
	"fmt"

	"gpupower/internal/backend/simbk"
	"gpupower/internal/core"
	"gpupower/internal/hw"
	"gpupower/internal/kernels"
	"gpupower/internal/microbench"
	"gpupower/internal/profiler"
	"gpupower/internal/sim"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Config is one (core, memory) frequency configuration in MHz.
	Config = hw.Config
	// Component identifies a modelled GPU component (Int, SP, DP, SF,
	// Shared, L2, DRAM).
	Component = hw.Component
	// Device is the static hardware description of a GPU (paper Table II).
	Device = hw.Device
	// Model is a fitted DVFS-aware power model (paper Eqs. 6–7 plus the
	// estimated per-configuration voltage tables).
	Model = core.Model
	// Breakdown is a per-component power decomposition at one configuration.
	Breakdown = core.Breakdown
	// Utilization maps each component to its average utilization rate
	// (paper Eqs. 8–10).
	Utilization = core.Utilization
	// KernelSpec describes one kernel launch by the work it presents to
	// each GPU component.
	KernelSpec = kernels.KernelSpec
	// App is an application: one or more kernels weighted by execution time.
	App = kernels.App
	// EstimatorOptions tunes the Section III-D fitting algorithm.
	EstimatorOptions = core.EstimatorOptions
)

// The modelled GPU components.
const (
	Int    = hw.Int
	SP     = hw.SP
	DP     = hw.DP
	SF     = hw.SF
	Shared = hw.Shared
	L2     = hw.L2
	DRAM   = hw.DRAM
)

// Catalog device names (paper Table II).
const (
	TitanXp   = "Titan Xp"
	GTXTitanX = "GTX Titan X"
	TeslaK40c = "Tesla K40c"
)

// DeviceNames lists the catalog devices in the paper's order.
func DeviceNames() []string { return []string{TitanXp, GTXTitanX, TeslaK40c} }

// GPU is an open handle to one GPU behind a measurement backend: kernel
// execution, clock control and power readings, CUPTI-style event collection
// and the paper's measurement methodology. Open backs it with the simulator;
// OpenBackend/OpenTrace accept any Backend.
type GPU struct {
	dev  *hw.Device
	b    Backend
	prof *profiler.Profiler
}

// Open creates a simulator-backed GPU handle for a catalog device. All
// stochastic behaviour (sensor noise, per-die event error) derives
// deterministically from seed.
func Open(deviceName string, seed uint64) (*GPU, error) {
	dev, err := hw.DeviceByName(deviceName)
	if err != nil {
		return nil, err
	}
	s, err := sim.New(dev, seed)
	if err != nil {
		return nil, err
	}
	b, err := simbk.New(s)
	if err != nil {
		return nil, err
	}
	p, err := profiler.New(b)
	if err != nil {
		return nil, err
	}
	return &GPU{dev: dev, b: b, prof: p}, nil
}

// Device returns the static hardware description.
func (g *GPU) Device() *Device { return g.dev }

// Name returns the product name.
func (g *GPU) Name() string { return g.dev.Name }

// Backend returns the measurement backend behind this handle.
func (g *GPU) Backend() Backend { return g.b }

// DefaultConfig returns the reference (default) clocks.
func (g *GPU) DefaultConfig() Config { return g.dev.DefaultConfig() }

// Configs enumerates the device's full V-F configuration space.
func (g *GPU) Configs() []Config { return g.dev.AllConfigs() }

// TDP returns the device's power limit in watts.
func (g *GPU) TDP() float64 { return g.dev.TDP }

// FitPowerModel runs the paper's full modelling pipeline: execute the
// 83-microbenchmark suite (events at the reference configuration, power at
// every configuration) and estimate the DVFS-aware model with the
// Section III-D iterative algorithm.
func (g *GPU) FitPowerModel() (*Model, error) {
	return g.FitPowerModelContext(context.Background(), nil) //lint:ignore ctxflow non-cancellable convenience wrapper; the *Context sibling is the cancellable API
}

// FitPowerModelWithOptions is FitPowerModel with custom estimator options.
func (g *GPU) FitPowerModelWithOptions(opts *EstimatorOptions) (*Model, error) {
	return g.FitPowerModelContext(context.Background(), opts) //lint:ignore ctxflow non-cancellable convenience wrapper; the *Context sibling is the cancellable API
}

// FitPowerModelContext is FitPowerModel under a context: cancellation is
// honored at benchmark granularity while measuring and at iteration
// granularity while estimating, and surfaces as an error wrapping ctx.Err().
func (g *GPU) FitPowerModelContext(ctx context.Context, opts *EstimatorOptions) (*Model, error) {
	d, err := core.BuildDataset(ctx, g.prof, microbench.Suite(), g.dev.DefaultConfig(), g.dev.AllConfigs())
	if err != nil {
		return nil, fmt.Errorf("gpupower: building training dataset: %w", err)
	}
	return core.Estimate(ctx, d, opts)
}

// Profile is an application's reference-configuration characterization:
// everything the model needs to predict its power anywhere.
type Profile struct {
	App         *App
	Ref         Config
	Utilization Utilization
	// RefPower is the measured average power at the reference
	// configuration, W (used by scaling-based baselines and sanity checks).
	RefPower float64
}

// Profile measures an application's performance events at the device's
// default (reference) configuration — the only measurement the model needs
// to predict the application's power at every other configuration.
func (g *GPU) Profile(app *App) (*Profile, error) {
	return g.ProfileContext(context.Background(), app) //lint:ignore ctxflow non-cancellable convenience wrapper; the *Context sibling is the cancellable API
}

// ProfileContext is Profile under a context.
func (g *GPU) ProfileContext(ctx context.Context, app *App) (*Profile, error) {
	return g.profileAt(ctx, app, g.dev.DefaultConfig())
}

// ProfileAt is Profile at an explicit reference configuration. The model
// used for prediction must have been fitted with the same reference.
func (g *GPU) ProfileAt(app *App, ref Config) (*Profile, error) {
	return g.profileAt(context.Background(), app, ref) //lint:ignore ctxflow non-cancellable convenience wrapper; the *Context sibling is the cancellable API
}

func (g *GPU) profileAt(ctx context.Context, app *App, ref Config) (*Profile, error) {
	l2bpc, err := core.CalibrateL2BytesPerCycle(ctx, g.prof, ref)
	if err != nil {
		return nil, err
	}
	return g.profileWith(ctx, app, ref, l2bpc)
}

// ProfileForModel profiles an application using the model's calibrated L2
// peak and reference configuration (the normal prediction path: calibration
// happened once, at fit time).
func (g *GPU) ProfileForModel(app *App, m *Model) (*Profile, error) {
	return g.ProfileForModelContext(context.Background(), app, m) //lint:ignore ctxflow non-cancellable convenience wrapper; the *Context sibling is the cancellable API
}

// ProfileForModelContext is ProfileForModel under a context.
func (g *GPU) ProfileForModelContext(ctx context.Context, app *App, m *Model) (*Profile, error) {
	return g.profileWith(ctx, app, m.Ref, m.L2BytesPerCycle)
}

func (g *GPU) profileWith(ctx context.Context, app *App, ref Config, l2bpc float64) (*Profile, error) {
	prof, err := g.prof.ProfileApp(ctx, app, ref)
	if err != nil {
		return nil, err
	}
	util, err := core.AppUtilization(g.dev, prof, l2bpc)
	if err != nil {
		return nil, err
	}
	refPower, err := g.prof.MeasureAppPower(ctx, app, ref)
	if err != nil {
		return nil, err
	}
	return &Profile{App: app, Ref: ref, Utilization: util, RefPower: refPower}, nil
}

// MeasurePower measures an application's average power at a configuration
// with the paper's methodology (≥1 s runs, median of 10, kernel-time
// weighting). Use it to validate predictions; the model itself never needs
// more than the single reference-configuration profile.
func (g *GPU) MeasurePower(app *App, cfg Config) (float64, error) {
	return g.prof.MeasureAppPower(context.Background(), app, cfg) //lint:ignore ctxflow non-cancellable convenience wrapper; the *Context sibling is the cancellable API
}

// MeasurePowerContext is MeasurePower under a context.
func (g *GPU) MeasurePowerContext(ctx context.Context, app *App, cfg Config) (float64, error) {
	return g.prof.MeasureAppPower(ctx, app, cfg)
}

// MeasureIdlePower measures the awake-but-idle power at a configuration.
func (g *GPU) MeasureIdlePower(cfg Config) (float64, error) {
	return g.prof.MeasureIdlePower(context.Background(), cfg) //lint:ignore ctxflow non-cancellable convenience wrapper; the *Context sibling is the cancellable API
}

// LoadModel reads a fitted model from a JSON file.
func LoadModel(path string) (*Model, error) { return core.LoadModel(path) }

// DefaultEstimatorOptions returns the paper's estimator settings.
func DefaultEstimatorOptions() *EstimatorOptions { return core.DefaultEstimatorOptions() }
