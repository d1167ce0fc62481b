package core

import (
	"context"
	"fmt"
	"math"

	"gpupower/internal/backend"
	"gpupower/internal/hw"
	"gpupower/internal/kernels"
	"gpupower/internal/microbench"
	"gpupower/internal/profiler"
)

// TrainingSample is one microbenchmark's reference-configuration profile:
// its name and the Eq. 8–10 utilization vector derived from events measured
// at the reference configuration only.
type TrainingSample struct {
	Name string
	Util Utilization
}

// Dataset is everything the Section III-D estimator consumes: per-benchmark
// utilizations (events at the reference configuration) and measured average
// power for every benchmark at every V-F configuration.
type Dataset struct {
	Device  *hw.Device
	Ref     hw.Config
	Configs []hw.Config

	Benchmarks []TrainingSample
	// Power[b][f] is the measured power of benchmark b at Configs[f], W.
	Power [][]float64

	// L2BytesPerCycle is the calibrated L2 peak used for the utilizations.
	L2BytesPerCycle float64
}

// Validate checks dataset shape invariants.
func (d *Dataset) Validate() error {
	if len(d.Benchmarks) == 0 || len(d.Configs) == 0 {
		return fmt.Errorf("core: empty dataset")
	}
	if len(d.Power) != len(d.Benchmarks) {
		return fmt.Errorf("core: power rows %d != benchmarks %d", len(d.Power), len(d.Benchmarks))
	}
	if !finitePositive(d.L2BytesPerCycle) {
		return fmt.Errorf("core: L2 bytes/cycle %g must be finite and positive", d.L2BytesPerCycle)
	}
	for i, row := range d.Power {
		if len(row) != len(d.Configs) {
			return fmt.Errorf("core: power row %d has %d entries, want %d", i, len(row), len(d.Configs))
		}
		for j, p := range row {
			if !(p >= 0) || math.IsInf(p, 1) {
				return fmt.Errorf("core: power %g for benchmark %d at config %d is not finite and non-negative", p, i, j)
			}
		}
	}
	for _, b := range d.Benchmarks {
		if err := b.Util.Validate(); err != nil {
			return fmt.Errorf("core: benchmark %s: %w", b.Name, err)
		}
	}
	// Each configuration owns one (mi, ci) slot of the voltage table, which
	// step 2 fills from that configuration's column: a duplicate would
	// overwrite the voltages solved from the other copy's measurements.
	seen := make(map[hw.Config]struct{}, len(d.Configs))
	for _, cfg := range d.Configs {
		if _, dup := seen[cfg]; dup {
			return fmt.Errorf("core: duplicate configuration %v in dataset", cfg)
		}
		seen[cfg] = struct{}{}
	}
	return nil
}

// configIndex returns the position of cfg in d.Configs.
func (d *Dataset) configIndex(cfg hw.Config) (int, error) {
	for i, c := range d.Configs {
		if c == cfg {
			return i, nil
		}
	}
	return 0, fmt.Errorf("core: configuration %v not in dataset", cfg)
}

// CalibrateL2BytesPerCycle discovers the device's aggregate L2 peak
// bandwidth by running the dedicated L2 microbenchmarks at the reference
// configuration and taking the best achieved bytes-per-core-cycle
// (Section III-C / Section IV).
func CalibrateL2BytesPerCycle(ctx context.Context, p *profiler.Profiler, ref hw.Config) (float64, error) {
	suite := microbench.Suite()
	var best float64
	for _, b := range suite {
		if b.Collection != microbench.CollL2 {
			continue
		}
		prof, err := p.ProfileApp(ctx, kernels.SingleKernelApp(b.Kernel), ref)
		if err != nil {
			return 0, err
		}
		kp := prof.Kernels[0]
		aCycles := kp.Metrics[backend.MetricACycles]
		if aCycles <= 0 {
			continue
		}
		l2Bytes := (kp.Metrics[backend.MetricL2Read] + kp.Metrics[backend.MetricL2Write]) * 32
		if bpc := l2Bytes / aCycles; bpc > best {
			best = bpc
		}
	}
	if best <= 0 {
		return 0, fmt.Errorf("core: L2 calibration produced no bandwidth sample")
	}
	return best, nil
}

// BuildDataset measures the full training dataset on the profiler's
// device: events for every microbenchmark of the suite at the device's
// reference configuration, power for every microbenchmark at every
// configuration of its ladder. Cancellation is checked at benchmark and
// configuration granularity.
func BuildDataset(ctx context.Context, p *profiler.Profiler) (*Dataset, error) {
	dev := p.HW()
	ref, configs := dev.DefaultConfig(), dev.AllConfigs()
	l2bpc, err := CalibrateL2BytesPerCycle(ctx, p, ref)
	if err != nil {
		return nil, err
	}
	d := &Dataset{
		Device:          dev,
		Ref:             ref,
		Configs:         configs,
		L2BytesPerCycle: l2bpc,
	}
	for _, b := range microbench.Suite() {
		if err := backend.CheckContext(ctx, "core: building dataset"); err != nil {
			return nil, err
		}
		prof, err := p.ProfileApp(ctx, kernels.SingleKernelApp(b.Kernel), ref)
		if err != nil {
			return nil, fmt.Errorf("core: profiling %s: %w", b.Kernel.Name, err)
		}
		util, err := UtilizationFromMetrics(d.Device, ref, prof.Kernels[0].Metrics, l2bpc)
		if err != nil {
			return nil, fmt.Errorf("core: utilization of %s: %w", b.Kernel.Name, err)
		}
		row := make([]float64, len(configs))
		for fi, cfg := range configs {
			pw, _, err := p.MeasureKernelPower(ctx, b.Kernel, cfg)
			if err != nil {
				return nil, fmt.Errorf("core: measuring %s at %v: %w", b.Kernel.Name, cfg, err)
			}
			row[fi] = pw
		}
		d.Benchmarks = append(d.Benchmarks, TrainingSample{Name: b.Kernel.Name, Util: util})
		d.Power = append(d.Power, row)
	}
	return d, d.Validate()
}

// AppUtilization converts an application's reference-configuration event
// profile into a single utilization vector, weighting each kernel by its
// relative execution time (the same weighting the paper applies to power).
func AppUtilization(dev *hw.Device, prof *profiler.AppProfile, l2BytesPerCycle float64) (Utilization, error) {
	if len(prof.Kernels) == 0 {
		return nil, fmt.Errorf("core: app profile %s has no kernels", prof.App.Name)
	}
	var totalT float64
	acc := make(Utilization, 7)
	for _, kp := range prof.Kernels {
		u, err := UtilizationFromMetrics(dev, prof.RefConfig, kp.Metrics, l2BytesPerCycle)
		if err != nil {
			return nil, fmt.Errorf("core: kernel %s: %w", kp.Spec.Name, err)
		}
		for c, v := range u {
			acc[c] += v * kp.Seconds
		}
		totalT += kp.Seconds
	}
	if totalT <= 0 {
		return nil, fmt.Errorf("core: app profile %s has zero total time", prof.App.Name)
	}
	for c := range acc {
		acc[c] = clamp01(acc[c] / totalT)
	}
	return acc, nil
}
