// Package simbk adapts the in-process simulator (internal/sim plus its
// cupti façade) to the backend.Backend measurement interface. It adds
// no behaviour of its own: every method is a thin translation, so fitting a
// model through this adapter is bitwise-identical to driving the simulator
// directly (the serial/parallel equivalence tests and the golden-trace
// round-trip test both pin this down).
package simbk

import (
	"fmt"
	"time"

	"gpupower/internal/backend"
	"gpupower/internal/cupti"
	"gpupower/internal/hw"
	"gpupower/internal/kernels"
	"gpupower/internal/sim"
)

// Backend is the simulator-backed measurement backend.
type Backend struct {
	dev *sim.Device
	col *cupti.Collector
}

var _ backend.Backend = (*Backend)(nil)

// New wraps a simulated device (and its CUPTI collector) as a Backend.
func New(dev *sim.Device) (*Backend, error) {
	if dev == nil {
		return nil, fmt.Errorf("simbk: nil device")
	}
	col, err := cupti.NewCollector(dev)
	if err != nil {
		return nil, err
	}
	return &Backend{dev: dev, col: col}, nil
}

// Open builds the whole simulator stack for a catalog device: hardware
// description, simulated die (seeded), collector, adapter.
func Open(deviceName string, seed uint64) (*Backend, error) {
	dev, err := hw.DeviceByName(deviceName)
	if err != nil {
		return nil, err
	}
	s, err := sim.New(dev, seed)
	if err != nil {
		return nil, err
	}
	return New(s)
}

// Sim exposes the underlying simulated device for validation-only paths
// (ground-truth breakdowns, third-party voltage readouts). Measurement code
// must stay on the Backend interface.
func (b *Backend) Sim() *sim.Device { return b.dev }

// Collector exposes the CUPTI façade (pass schedules, event tables) for
// code that reports on the collection process itself.
func (b *Backend) Collector() *cupti.Collector { return b.col }

// Device returns the static hardware description.
func (b *Backend) Device() *hw.Device { return b.dev.HW() }

// SetClocks requests application clocks on the simulated die.
func (b *Backend) SetClocks(cfg hw.Config) error {
	return b.dev.SetClocks(cfg.MemMHz, cfg.CoreMHz)
}

// Clocks returns the currently requested application clocks.
func (b *Backend) Clocks() hw.Config { return b.dev.Clocks() }

// SampledKernelPower measures one kernel with the paper's sampling loop.
func (b *Backend) SampledKernelPower(k *kernels.KernelSpec, minWall time.Duration) (float64, backend.RunInfo, error) {
	return b.dev.SampledAveragePower(k, minWall)
}

// SampledIdlePower measures the awake-but-idle device.
func (b *Backend) SampledIdlePower(minWall time.Duration) (float64, error) {
	return b.dev.SampledIdlePower(minWall), nil
}

// CollectMetrics gathers the Table I metrics for one kernel.
func (b *Backend) CollectMetrics(k *kernels.KernelSpec) (backend.Metrics, backend.RunInfo, error) {
	metrics, run, err := b.col.CollectMetrics(k)
	if err != nil {
		return nil, backend.RunInfo{}, err
	}
	out := make(backend.Metrics, len(metrics))
	for m, v := range metrics {
		out[string(m)] = v
	}
	return out, runInfo(run), nil
}

// RunKernel executes one launch at the current clocks and integrates its
// energy (the quantity behind NVML's total-energy counter).
func (b *Backend) RunKernel(k *kernels.KernelSpec) (float64, backend.RunInfo, error) {
	run, err := b.dev.Execute(k)
	if err != nil {
		return 0, backend.RunInfo{}, err
	}
	return run.TruePower * run.Exec.Seconds(), runInfo(run), nil
}

// runInfo projects the simulator's ground-truth RunResult onto the portable
// measurement summary.
func runInfo(r *sim.RunResult) backend.RunInfo {
	return backend.RunInfo{
		Requested: r.Requested,
		Effective: r.Effective,
		Seconds:   r.Exec.Seconds(),
	}
}
