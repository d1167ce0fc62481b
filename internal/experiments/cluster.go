package experiments

import (
	"context"
	"fmt"
	"strings"

	"gpupower/internal/cluster"
	"gpupower/internal/core"
	"gpupower/internal/governor"
	"gpupower/internal/suites"
)

// clusterClasses is the fleet's job mix: validation applications spanning
// the paper's workload spectrum — compute-bound (CUTCP, BLCKSC), DRAM-bound
// (LBM) and balanced (GEMM) — weighted toward the compute-heavy end.
var clusterClasses = []struct {
	short  string
	weight float64
}{
	{"BLCKSC", 4},
	{"LBM", 3},
	{"CUTCP", 2},
	{"GEMM", 1},
}

// ClusterRow is one policy's fleet outcome on the common traffic trace.
type ClusterRow struct {
	Policy         string
	Jobs           int64
	MissPct        float64
	EnergyJ        float64
	AvgPowerW      float64
	P50Ms          float64
	P99Ms          float64
	EnergySavedPct float64 // vs the static-clock baseline row
	TraceHash      uint64
}

// ClusterResult is the fleet-simulation experiment: the same seeded job
// streams served under static clocks, the model-driven governor and the
// clairvoyant per-job oracle. The engine's event throughput is
// BenchmarkClusterEvents' row, not a field here.
type ClusterResult struct {
	Devices        []string
	Classes        []string
	GPUs           int
	HorizonSeconds float64
	RatePerGPU     float64
	Seed           uint64

	Rows []ClusterRow

	// Events is the event count of one run (identical across policies:
	// every arrival is served, so runs differ in timing, not cardinality).
	Events int64
}

// clusterFleet profiles the job-mix applications on every catalog device
// and assembles the fleet description: per (device, class), the utilization
// vector the power model consumes and the reference-clock service time.
// Profiling happens once per rig; the simulator reuses the shared fitted
// models.
func clusterFleet(ctx context.Context, seed uint64) ([]cluster.DeviceModel, []cluster.KernelClass, []string, error) {
	devices := AllDeviceNames()
	rigs, err := SharedRigs(ctx, devices, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	classes := make([]cluster.KernelClass, len(clusterClasses))
	names := make([]string, len(clusterClasses))
	for i, c := range clusterClasses {
		classes[i] = cluster.KernelClass{Name: c.short, Weight: c.weight}
		names[i] = c.short
	}
	fleet := make([]cluster.DeviceModel, len(rigs))
	for i, r := range rigs {
		m, err := r.Model(ctx)
		if err != nil {
			return nil, nil, nil, err
		}
		dcs := make([]cluster.DeviceClass, len(clusterClasses))
		for j, c := range clusterClasses {
			app, err := suites.ByShort(c.short)
			if err != nil {
				return nil, nil, nil, err
			}
			prof, err := r.Profiler.ProfileApp(ctx, app.App, m.Ref)
			if err != nil {
				return nil, nil, nil, err
			}
			u, err := core.AppUtilization(r.Device, prof, m.L2BytesPerCycle)
			if err != nil {
				return nil, nil, nil, err
			}
			var refSec float64
			for _, k := range prof.Kernels {
				refSec += k.Seconds
			}
			dcs[j] = cluster.DeviceClass{Util: u, RefSeconds: refSec}
		}
		fleet[i] = cluster.DeviceModel{Device: r.Device, Model: m, Classes: dcs}
	}
	return fleet, classes, devices, nil
}

// RunCluster simulates a fleet of gpus GPUs (split round-robin across the
// three catalog device models) serving horizonSeconds of Poisson traffic
// under each policy. Every field is deterministic for a given seed.
func RunCluster(ctx context.Context, seed uint64, gpus int, horizonSeconds float64) (*ClusterResult, error) {
	fleet, classes, devices, err := clusterFleet(ctx, seed)
	if err != nil {
		return nil, err
	}
	opts := &cluster.Options{
		GPUs:           gpus,
		HorizonSeconds: horizonSeconds,
		Seed:           seed,
		Fleet:          fleet,
		Classes:        classes,
		Workload: cluster.Workload{
			Process:    cluster.Poisson,
			RatePerGPU: 60, // ~0.3-0.6 server utilization across the mix
			SlackMin:   2,
			SlackMax:   6,
		},
		Governor:   governor.MinEnergy,
		MaxStretch: 2, // never plan past half the tightest slack
	}
	out := &ClusterResult{
		Devices:        devices,
		GPUs:           gpus,
		HorizonSeconds: horizonSeconds,
		RatePerGPU:     opts.Workload.RatePerGPU,
		Seed:           seed,
	}
	for _, c := range classes {
		out.Classes = append(out.Classes, c.Name)
	}

	var staticEnergy float64
	for _, policy := range []cluster.Policy{cluster.Static, cluster.ModelDVFS, cluster.Oracle} {
		o := *opts
		o.Policy = policy
		sim, err := cluster.NewSimulator(ctx, &o)
		if err != nil {
			return nil, err
		}
		m, err := sim.Run(ctx)
		if err != nil {
			return nil, fmt.Errorf("experiments: cluster %v run: %w", policy, err)
		}
		row := ClusterRow{
			Policy:    policy.String(),
			Jobs:      m.Jobs,
			MissPct:   100 * m.MissRate,
			EnergyJ:   m.EnergyJ,
			AvgPowerW: m.AvgPowerW,
			P50Ms:     1e3 * m.P50Seconds,
			P99Ms:     1e3 * m.P99Seconds,
			TraceHash: m.TraceHash,
		}
		if policy == cluster.Static {
			staticEnergy = m.EnergyJ
		} else if staticEnergy > 0 {
			row.EnergySavedPct = 100 * (staticEnergy - m.EnergyJ) / staticEnergy
		}
		out.Rows = append(out.Rows, row)
		out.Events = m.Events
	}
	return out, nil
}

func (r *ClusterResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fleet DVFS simulation: %d GPUs (%s), %.0f s horizon, %.0f jobs/s/GPU, classes %s (seed %d)\n",
		r.GPUs, strings.Join(r.Devices, " / "), r.HorizonSeconds, r.RatePerGPU,
		strings.Join(r.Classes, ","), r.Seed)
	fmt.Fprintf(&sb, "  %-11s %10s %8s %14s %9s %9s %9s %10s\n",
		"policy", "jobs", "miss%", "energy kJ", "avg W", "p50 ms", "p99 ms", "saved%")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-11s %10d %8.2f %14.1f %9.1f %9.2f %9.2f %10.1f\n",
			row.Policy, row.Jobs, row.MissPct, row.EnergyJ/1e3, row.AvgPowerW,
			row.P50Ms, row.P99Ms, row.EnergySavedPct)
	}
	fmt.Fprintf(&sb, "  engine: %d events/run\n", r.Events)
	return sb.String()
}
