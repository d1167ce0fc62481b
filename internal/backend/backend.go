// Package backend defines the measurement seam of the modelling pipeline:
// the one interface through which every higher layer (profiler, dataset
// builder, estimator, governor, auto-tuner, serving registry) observes a
// GPU.
//
// The paper's methodology needs exactly three capabilities from a device —
// application-clock control (NVML), a power sensor (NVML), and performance
// event collection (CUPTI) — plus, for the governor/validation paths, the
// ability to execute a kernel and read back its measured energy. Anything
// that provides those four capabilities can drive the model: the in-process
// simulator (internal/sim implements Backend itself), a recorded measurement
// trace (internal/backend/trace), or — on real hardware — an NVML/CUPTI
// exporter. The fitting pipeline is agnostic to which one is behind the
// interface; that substitution argument is what makes the model "fitted
// from measurements only".
//
// This package has no dependency on the simulator (or any concrete
// backend): it sits below all of them, and it owns the names of the
// metrics that cross the seam, so the model side never links the code
// that produces them.
package backend

import (
	"context"
	"fmt"
	"time"

	"gpupower/internal/hw"
	"gpupower/internal/kernels"
)

// RunInfo summarizes one measured kernel run as any backend can report it:
// what was requested, what the hardware actually ran at (TDP capping), and
// how long a single launch took. It deliberately carries no ground truth —
// it is the portable, serializable subset of the simulator's RunResult.
type RunInfo struct {
	// Requested is the application-clock configuration in force at launch.
	Requested hw.Config
	// Effective is the configuration the hardware actually ran at; it
	// differs from Requested when the TDP governor stepped the core clock
	// down.
	Effective hw.Config
	// Seconds is the single-launch execution time at Effective.
	Seconds float64
}

// Metrics holds aggregated performance-event metrics keyed by metric name:
// the left column of the paper's Table I (the Metric* constants). String
// keys make the type directly serializable into traces.
type Metrics map[string]float64

// The metrics of the paper's Table I, the keys of Metrics.
const (
	MetricACycles     = "ACycles"
	MetricL2Read      = "ABandL2.read"
	MetricL2Write     = "ABandL2.write"
	MetricSharedLoad  = "ABandShared.load"
	MetricSharedStore = "ABandShared.store"
	MetricDRAMRead    = "ABandDRAM.read"
	MetricDRAMWrite   = "ABandDRAM.write"
	MetricWarpsSPInt  = "AWarpsSP/INT"
	MetricWarpsDP     = "AWarpsDP"
	MetricWarpsSF     = "AWarpsSF"
	MetricInstInt     = "InstINT"
	MetricInstSP      = "InstSP"
)

// AllMetrics lists every Table I metric in presentation order.
var AllMetrics = []string{
	MetricACycles,
	MetricL2Read, MetricL2Write,
	MetricSharedLoad, MetricSharedStore,
	MetricDRAMRead, MetricDRAMWrite,
	MetricWarpsSPInt, MetricWarpsDP, MetricWarpsSF,
	MetricInstInt, MetricInstSP,
}

// Backend is the full measurement surface of one GPU.
type Backend interface {
	// Device returns the static hardware description of the GPU behind
	// this backend.
	Device() *hw.Device

	// SetClocks requests application clocks (NVML). Both frequencies must
	// be supported ladder levels; violations are reported with an error
	// wrapping ErrUnsupportedClock.
	SetClocks(cfg hw.Config) error
	// Clocks returns the currently requested application clocks.
	Clocks() hw.Config

	// SampledKernelPower launches the kernel repeatedly for at least
	// minWall at the current clocks and returns the sensor-averaged power
	// in watts, together with the run summary. The sensor refreshes
	// periodically, so a measurement spans at least minWall of wall time
	// and averages the readings (the paper's sampling semantics).
	SampledKernelPower(k *kernels.KernelSpec, minWall time.Duration) (float64, RunInfo, error)
	// SampledIdlePower measures the awake-but-idle device at the current
	// clocks for at least minWall.
	SampledIdlePower(minWall time.Duration) (float64, error)

	// CollectMetrics (CUPTI) replays the kernel as many times as the
	// counter budget requires at the current clocks and returns the
	// Table I metrics, together with the last replay's run summary.
	CollectMetrics(k *kernels.KernelSpec) (Metrics, RunInfo, error)

	// RunKernel executes one launch at the current clocks and returns its
	// measured energy in joules and the run summary: the governed-run and
	// time-scaling paths need true execution time and measured energy
	// (what a wattmeter integrates), not the model's prediction.
	RunKernel(k *kernels.KernelSpec) (float64, RunInfo, error)
}

// CheckContext returns nil while ctx is live, and otherwise a labeled error
// wrapping ctx.Err() — so errors.Is(err, context.Canceled) (or
// context.DeadlineExceeded) holds for every cancellation surfaced through
// the pipeline. Long-running operations call it at iteration/configuration
// granularity.
func CheckContext(ctx context.Context, op string) error {
	if err := ctx.Err(); err != nil { //gpower:allocs cancellation path: ctx.Err is an interface call and the wrap allocates only after the context is already dead
		return fmt.Errorf("%s: %w", op, err)
	}
	return nil
}
