package silicon

import (
	"fmt"
	"time"

	"gpupower/internal/hw"
	"gpupower/internal/kernels"
)

// Execution is the ground-truth outcome of running one kernel at one V-F
// configuration: wall time, per-component utilizations and active cycles.
type Execution struct {
	Kernel *kernels.KernelSpec
	Config hw.Config

	// Time is the kernel execution time.
	Time time.Duration

	// Utilization holds the true average utilization U ∈ [0,1] of each
	// component over the run — the quantity paper Eqs. 8–9 estimate from
	// events.
	Utilization map[hw.Component]float64

	// ActiveCycles is the core-domain cycle count with at least one active
	// warp (the CUPTI "active_cycles" event).
	ActiveCycles float64
}

// componentTime returns the time the kernel would need if component c were
// the only bottleneck, in seconds, at configuration cfg.
func componentTime(dev *hw.Device, k *kernels.KernelSpec, cfg hw.Config, c hw.Component) float64 {
	switch c {
	case hw.Int, hw.SP, hw.DP, hw.SF:
		peak := dev.PeakComputeWarpsPerSec(c, cfg.CoreMHz)
		return k.Warp(c) / peak
	case hw.Shared:
		return k.SharedBytes() / dev.PeakSharedBandwidth(cfg.CoreMHz)
	case hw.L2:
		return k.L2Bytes() / dev.PeakL2Bandwidth(cfg.CoreMHz)
	case hw.DRAM:
		return k.DRAMBytes() / dev.PeakDRAMBandwidth(cfg.MemMHz)
	default:
		panic(fmt.Sprintf("silicon: unknown component %v", c))
	}
}

// Simulate runs the roofline timing model: the kernel time is the slowest
// single-component time divided by the kernel's issue efficiency, plus the
// latency (fixed-cycle) term. Utilizations follow as achieved/peak
// throughput, which by construction lie in [0, IssueEfficiency] ⊆ [0, 1] —
// the same U ∈ [0,1] the paper's Eqs. 8–9 produce, and they drift with the
// configuration exactly the way real kernels do (a memory-bound kernel's
// compute utilization rises as the core slows down).
func Simulate(dev *hw.Device, k *kernels.KernelSpec, cfg hw.Config) (*Execution, error) {
	total, err := kernelSeconds(dev, k, cfg)
	if err != nil {
		return nil, err
	}
	util := make(map[hw.Component]float64, len(hw.Components))
	for _, c := range hw.Components {
		util[c] = componentTime(dev, k, cfg, c) / total
	}
	return &Execution{
		Kernel:       k,
		Config:       cfg,
		Time:         executionTime(total),
		Utilization:  util,
		ActiveCycles: total * cfg.CoreMHz * 1e6,
	}, nil
}

// kernelSeconds validates the kernel and the configuration and returns the
// roofline time Simulate models, in seconds.
func kernelSeconds(dev *hw.Device, k *kernels.KernelSpec, cfg hw.Config) (float64, error) {
	if err := k.Validate(); err != nil {
		return 0, err
	}
	if !dev.SupportsCoreFreq(cfg.CoreMHz) || !dev.SupportsMemFreq(cfg.MemMHz) {
		return 0, fmt.Errorf("silicon: %s does not support %v", dev.Name, cfg)
	}

	var bound float64
	for _, c := range hw.Components {
		if t := componentTime(dev, k, cfg, c); t > bound {
			bound = t
		}
	}
	latency := k.FixedCycles / (cfg.CoreMHz * 1e6)
	total := bound/k.IssueEfficiency + latency + k.StallSeconds
	if total <= 0 {
		// A descriptor with only fixed cycles and zero throughput work still
		// has latency; zero total means an empty kernel, rejected above.
		return 0, fmt.Errorf("silicon: kernel %s has zero execution time", k.Name)
	}
	return total, nil
}

// executionTime is a kernel time in seconds as an Execution records it.
func executionTime(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second))
}

// Seconds returns the execution time in seconds.
func (e *Execution) Seconds() float64 { return e.Time.Seconds() }
