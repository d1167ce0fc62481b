// Package sim provides the runtime simulation of a GPU device: clock state,
// kernel execution (via the silicon ground truth), TDP-driven frequency
// capping and the on-board power sensor with its refresh-period sampling
// pathology. backend/simbk adapts a sim.Device (with the cupti façade for
// events) to the measurement backend; the profiler and model estimator
// only ever talk to that backend.
package sim

import (
	"fmt"
	"sync"
	"time"

	"gpupower/internal/backend"
	"gpupower/internal/hw"
	"gpupower/internal/kernels"
	"gpupower/internal/silicon"
	"gpupower/internal/stats"
)

// Device is one simulated GPU with mutable clock state.
type Device struct {
	hwd   *hw.Device
	truth *silicon.Truth

	mu  sync.Mutex
	cfg hw.Config

	sensorRNG *stats.RNG
	eventRNG  *stats.RNG
}

// New creates a simulated device for the given hardware description, with
// all stochastic behaviour (sensor noise, event error) derived from seed.
func New(dev *hw.Device, seed uint64) (*Device, error) {
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	truth, err := silicon.TruthFor(dev)
	if err != nil {
		return nil, err
	}
	root := stats.NewRNG(seed)
	return &Device{
		hwd:       dev,
		truth:     truth,
		cfg:       dev.DefaultConfig(),
		sensorRNG: root.Fork(1),
		eventRNG:  root.Fork(2),
	}, nil
}

// HW returns the static hardware description.
func (d *Device) HW() *hw.Device { return d.hwd }

// SetClocks requests application clocks, like nvmlDeviceSetApplicationsClocks.
// Both frequencies must be supported ladder levels.
func (d *Device) SetClocks(memMHz, coreMHz float64) error {
	if !d.hwd.SupportsMemFreq(memMHz) {
		return fmt.Errorf("sim: %s: memory clock %g MHz: %w", d.hwd.Name, memMHz, backend.ErrUnsupportedClock)
	}
	if !d.hwd.SupportsCoreFreq(coreMHz) {
		return fmt.Errorf("sim: %s: core clock %g MHz: %w", d.hwd.Name, coreMHz, backend.ErrUnsupportedClock)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cfg = hw.Config{CoreMHz: coreMHz, MemMHz: memMHz}
	return nil
}

// Clocks returns the currently requested application clocks.
func (d *Device) Clocks() hw.Config {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cfg
}

// RunResult summarizes one kernel execution.
type RunResult struct {
	// Requested is the application-clock configuration in force at launch.
	Requested hw.Config
	// Effective is the configuration the hardware actually ran at; it
	// differs from Requested when the TDP governor stepped the core clock
	// down (paper Fig. 9: "automatic frequency decrease to the closest
	// frequency level that does not violate TDP").
	Effective hw.Config
	// Exec is the ground-truth execution at the effective configuration.
	Exec *silicon.Execution
	// TruePower is the exact average power of the run, W. Measurement code
	// must not use it; it exists for validation and tests.
	TruePower float64
}

// Execute runs one kernel launch at the current clocks, applying the TDP
// governor, and returns the ground-truth outcome.
func (d *Device) Execute(k *kernels.KernelSpec) (*RunResult, error) {
	run, p, err := d.launch(k)
	if err != nil {
		return nil, err
	}
	exec, err := silicon.Simulate(d.hwd, k, run.Effective)
	if err != nil {
		return nil, err
	}
	return &RunResult{Requested: run.Requested, Effective: run.Effective, Exec: exec, TruePower: p}, nil
}

// launch is Execute without the ground-truth record: it applies the TDP
// governor the same way and returns the launch's configurations and time
// and its true power, allocating nothing.
func (d *Device) launch(k *kernels.KernelSpec) (backend.RunInfo, float64, error) {
	run := backend.RunInfo{Requested: d.Clocks()}
	run.Effective = run.Requested
	for {
		seconds, p, err := d.truth.Launch(k, run.Effective)
		if err != nil {
			return backend.RunInfo{}, 0, err
		}
		next, ok := d.stepCoreDown(run.Effective.CoreMHz)
		// At the floor the hardware would throttle below any ladder level:
		// it runs there and reports its power.
		if p <= d.hwd.TDP || !ok {
			run.Seconds = seconds
			return run, p, nil
		}
		run.Effective.CoreMHz = next
	}
}

func (d *Device) stepCoreDown(fc float64) (float64, bool) {
	ladder := d.hwd.CoreFreqs
	for i := len(ladder) - 1; i >= 0; i-- {
		if ladder[i] < fc {
			return ladder[i], true
		}
	}
	return 0, false
}

// IdlePower returns the true idle power at the current clocks. The sensor
// mixes it into readings that straddle a kernel launch.
func (d *Device) IdlePower() float64 {
	return d.truth.IdlePower(d.Clocks())
}

// SampledAveragePower emulates the paper's measurement loop (Section V-A):
// the kernel is launched repeatedly until at least minWall of wall time has
// elapsed, while the NVML sensor refreshes every HW().SensorRefresh; the
// returned value is the average of all sensor readings, each carrying
// sensor noise. When the total run is shorter than one refresh window the
// reading mixes in pre-launch idle power — the misleading-measurement
// pathology that motivates the ≥1 s repetition rule.
func (d *Device) SampledAveragePower(k *kernels.KernelSpec, minWall time.Duration) (float64, backend.RunInfo, error) {
	run, p, err := d.launch(k)
	if err != nil {
		return 0, backend.RunInfo{}, err
	}
	wall := minWall.Seconds()
	if run.Seconds > wall {
		wall = run.Seconds
	}
	refresh := d.hwd.SensorRefresh.Seconds()
	idle := d.truth.IdlePower(run.Effective)

	nWindows := int(wall / refresh)
	if nWindows == 0 {
		// Single partial window: the sensor accumulated idle power before
		// the launch.
		frac := wall / refresh
		reading := frac*p + (1-frac)*idle
		return d.noisyReading(reading), run, nil
	}
	var sum float64
	for i := 0; i < nWindows; i++ {
		sum += d.noisyReading(p)
	}
	return sum / float64(nWindows), run, nil
}

// noisyReading applies the sensor's noise model: a small absolute term plus
// a relative term, then 1 mW quantization (NVML reports milliwatts).
func (d *Device) noisyReading(p float64) float64 {
	d.mu.Lock()
	r := d.sensorRNG.Normal(p, 0.3+0.004*p)
	d.mu.Unlock()
	if r < 0 {
		r = 0
	}
	return float64(int64(r*1000)) / 1000
}

// SampledIdlePower measures the idle device the same way as a kernel run.
func (d *Device) SampledIdlePower(minWall time.Duration) float64 {
	refresh := d.hwd.SensorRefresh.Seconds()
	idle := d.IdlePower()
	n := int(minWall.Seconds() / refresh)
	if n < 1 {
		n = 1
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += d.noisyReading(idle)
	}
	return sum / float64(n)
}

// EventRNG exposes the event-noise stream for the cupti façade.
func (d *Device) EventRNG() *stats.RNG { return d.eventRNG }

// ThirdPartyVoltageReadout plays the role of NVIDIA Inspector / MSI
// Afterburner in the paper's Fig. 6 validation: it reports the true core
// voltage (normalized to the default core clock) for a given frequency.
// It is validation-only; the estimator never calls it.
func (d *Device) ThirdPartyVoltageReadout(coreMHz float64) float64 {
	return d.truth.CoreVNorm(coreMHz)
}

// TrueBreakdown exposes the ground-truth per-component power decomposition
// of an execution, for validation plots (paper Figs. 5B and 10 compare the
// model's decomposition against measured totals; tests compare it against
// the truth as well).
func (d *Device) TrueBreakdown(e *silicon.Execution) *silicon.PowerBreakdown {
	return d.truth.Breakdown(e)
}
