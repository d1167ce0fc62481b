package gpupower

import (
	"context"

	"gpupower/internal/cluster"
)

// Fleet-scale discrete-event DVFS simulation (internal/cluster, DESIGN.md
// §12): hundreds to thousands of simulated GPUs serving seeded stochastic
// job streams, each job executed against a fitted power model at the
// operating point the active policy chooses. The engine sustains millions
// of simulated events per second on one core and is bitwise-deterministic
// under parallel execution (GPUs shard across the engine worker pool; the
// metrics fold is ordered).

// ClusterOptions configures one fleet simulation.
type ClusterOptions = cluster.Options

// ClusterMetrics are the fleet-level outcomes of one simulation run.
type ClusterMetrics = cluster.Metrics

// ClusterSimulator is a reusable fleet simulation (runtimes resolved once,
// buffers retained across runs — steady-state re-runs allocate nothing).
type ClusterSimulator = cluster.Simulator

// ClusterDeviceModel binds one fleet device type to its fitted model and
// per-class workload realizations.
type ClusterDeviceModel = cluster.DeviceModel

// ClusterDeviceClass realizes one kernel class on one device model.
type ClusterDeviceClass = cluster.DeviceClass

// ClusterKernelClass is one weighted class of the fleet's job mix.
type ClusterKernelClass = cluster.KernelClass

// ClusterWorkload describes the per-GPU job stream.
type ClusterWorkload = cluster.Workload

// ClusterArrivalProcess selects the arrival process of the job stream.
type ClusterArrivalProcess = cluster.Process

// Arrival processes.
const (
	// ClusterPoisson draws exponential interarrival gaps.
	ClusterPoisson = cluster.Poisson
	// ClusterGammaArrivals draws Gamma-renewal gaps (CV-controlled burstiness).
	ClusterGammaArrivals = cluster.GammaArrivals
	// ClusterDiurnal modulates a Poisson stream with a sinusoidal day/night rate.
	ClusterDiurnal = cluster.Diurnal
)

// ClusterPolicy selects how simulated GPUs pick operating points.
type ClusterPolicy = cluster.Policy

// Cluster policies.
const (
	// ClusterStatic runs every job at reference clocks (the baseline).
	ClusterStatic = cluster.Static
	// ClusterModelDVFS applies the fitted model through the governor per
	// (device model, kernel class), via the decision cache keyed by
	// prediction-surface identity.
	ClusterModelDVFS = cluster.ModelDVFS
	// ClusterOracle picks a per-job minimum-energy point that meets the
	// job's deadline given queue state at dispatch.
	ClusterOracle = cluster.Oracle
)

// NewClusterSimulator validates the options and resolves every model
// evaluation the runs will need (surfaces, governor decisions, idle power).
func NewClusterSimulator(ctx context.Context, opts *ClusterOptions) (*ClusterSimulator, error) {
	return cluster.NewSimulator(ctx, opts)
}

// RunCluster simulates a fleet in one call. Metrics are bitwise-identical
// for a given (Options, Seed) at any worker count.
func RunCluster(ctx context.Context, opts *ClusterOptions) (*ClusterMetrics, error) {
	return cluster.Run(ctx, opts)
}
