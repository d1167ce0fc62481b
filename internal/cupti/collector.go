package cupti

import (
	"fmt"
	"hash/fnv"

	"gpupower/internal/backend"
	"gpupower/internal/hw"
	"gpupower/internal/kernels"
	"gpupower/internal/stats"
)

// Collector gathers performance events for kernel launches on one die.
//
// Each die carries two kinds of event error, both deterministic for a given
// die so that re-profiling a kernel reproduces the same (possibly wrong)
// counts — the behaviour of real undocumented counters:
//
//   - a per-event systematic multiplier (counter wiring / sampling
//     inaccuracy), constant across workloads. A constant bias is largely
//     absorbed into the regression coefficients, so it degrades the fitted
//     model only mildly.
//   - a per-(event, workload) systematic bias: an undocumented counter
//     characterizes its intended quantity imperfectly, and how far off it
//     is depends on the workload's instruction/traffic composition. This is
//     the error that cannot be absorbed, and it is substantially larger on
//     the Kepler device — the paper attributes the K40c's higher model
//     error to exactly this ("a reduced accuracy of the hardware events
//     when characterizing the utilization", Section V-B).
type Collector struct {
	dev     *hw.Device
	table   EventTable
	passes  [][]Event           // replay schedule (hardware counter budget)
	metric  map[EventID]string  // owning metric per event
	fanout  map[EventID]int     // events sharing the metric (aggregation split)
	sys     map[EventID]float64 // per-die systematic multiplier per event
	dieSalt uint64              // decorrelates workload biases across dies
	rng     *stats.RNG          // per-collection read noise
}

// systematicSigma returns the standard deviation of the per-die constant
// event bias for an architecture.
func systematicSigma(a hw.Arch) float64 {
	switch a {
	case hw.Kepler:
		return 0.10
	default:
		return 0.015
	}
}

// workloadSigma returns the standard deviation of the per-(event, workload)
// relative bias.
func workloadSigma(a hw.Arch) float64 {
	switch a {
	case hw.Kepler:
		return 0.50
	default:
		return 0.06
	}
}

// readSigma is the per-collection relative read noise.
const readSigma = 0.003

// NewCollector creates the event collector of one die of dev. It draws the
// die's event error from rng, in a fixed order: the per-event bias over the
// events of backend.AllMetrics, then the die salt; rng.Fork(7) then feeds
// the per-collection read noise.
func NewCollector(dev *hw.Device, rng *stats.RNG) (*Collector, error) {
	table, err := Table(dev)
	if err != nil {
		return nil, err
	}
	sigma := systematicSigma(dev.Arch)
	sys := make(map[EventID]float64)
	// Draw the die's per-event bias in a deterministic event order.
	for _, m := range backend.AllMetrics {
		for _, e := range table[m] {
			if _, ok := sys[e.ID]; ok {
				continue
			}
			f := rng.Normal(1, sigma)
			if f < 0.5 {
				f = 0.5
			}
			sys[e.ID] = f
		}
	}
	passes, err := Passes(table, dev.Arch)
	if err != nil {
		return nil, err
	}
	if err := validatePasses(passes, table, dev.Arch); err != nil {
		return nil, err
	}
	metric := map[EventID]string{}
	fanout := map[EventID]int{}
	for _, m := range backend.AllMetrics {
		for _, e := range table[m] {
			metric[e.ID] = m
			fanout[e.ID] = len(table[m])
		}
	}
	return &Collector{
		dev:     dev,
		table:   table,
		passes:  passes,
		metric:  metric,
		fanout:  fanout,
		sys:     sys,
		dieSalt: rng.Uint64(),
		rng:     rng.Fork(7),
	}, nil
}

// workloadBias returns the deterministic per-(metric, kernel) relative bias
// factor. It hashes the kernel's identity with the die salt so the same
// kernel on the same die always reads the same (wrong) way, while different
// kernels err differently — the non-absorbable error component. The bias is
// keyed per metric, not per event, because the events behind one metric
// (e.g. the four Kepler SP/INT warp counters) mis-characterize the same
// underlying quantity the same way.
func (c *Collector) workloadBias(m string, k *kernels.KernelSpec) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%.0f|%.0f", m, k.Name, k.Warp(hw.Int)+k.Warp(hw.SP), k.DRAMBytes())
	r := stats.NewRNG(h.Sum64() ^ c.dieSalt)
	f := 1 + r.Normal(0, workloadSigma(c.dev.Arch))
	if f < 0.3 {
		f = 0.3
	}
	return f
}

// idealFor computes the exact per-metric values of one kernel replay.
func (c *Collector) idealFor(k *kernels.KernelSpec, activeCycles float64) map[string]float64 {
	return map[string]float64{
		backend.MetricACycles: activeCycles,
		// 32-byte sectors at L2 and DRAM.
		backend.MetricL2Read:    k.L2ReadBytes / 32,
		backend.MetricL2Write:   k.L2WriteBytes / 32,
		backend.MetricDRAMRead:  k.DRAMReadBytes / 32,
		backend.MetricDRAMWrite: k.DRAMWriteBytes / 32,
		// A shared transaction moves banks×4 bytes.
		backend.MetricSharedLoad:  k.SharedLoadBytes / (float64(c.dev.SharedBanks) * 4),
		backend.MetricSharedStore: k.SharedStoreBytes / (float64(c.dev.SharedBanks) * 4),
		// The SP and INT warp counters are physically combined (Eq. 10).
		backend.MetricWarpsSPInt: k.Warp(hw.Int) + k.Warp(hw.SP),
		backend.MetricWarpsDP:    k.Warp(hw.DP),
		backend.MetricWarpsSF:    k.Warp(hw.SF),
		// Instruction counters count thread instructions.
		backend.MetricInstInt: k.Warp(hw.Int) * float64(c.dev.WarpSize),
		backend.MetricInstSP:  k.Warp(hw.SP) * float64(c.dev.WarpSize),
	}
}

// Collect gathers the Table I metrics of one kernel at the current
// application clocks. As on real hardware, the counter registers cannot
// hold every event at once, so the kernel is replayed once per pass —
// replay launches it and returns the launch's active cycles — and each
// replay reads only its pass's events; the events are then aggregated into
// metrics. Replaying perturbs nothing about the kernel's power behaviour —
// events and power are measured in separate runs (paper Section V-A).
func (c *Collector) Collect(k *kernels.KernelSpec, replay func() (activeCycles float64, err error)) (backend.Metrics, error) {
	counters := make(Counters)
	for _, pass := range c.passes {
		cycles, err := replay()
		if err != nil {
			return nil, err
		}
		ideal := c.idealFor(k, cycles)
		for _, e := range pass {
			m := c.metric[e.ID]
			v := ideal[m] / float64(c.fanout[e.ID]) * c.sys[e.ID]
			if m != backend.MetricACycles {
				v *= c.workloadBias(m, k)
			}
			v *= c.rng.Normal(1, readSigma)
			if v < 0 {
				v = 0
			}
			counters[e.ID] = v
		}
	}
	out := make(backend.Metrics, len(backend.AllMetrics))
	for _, m := range backend.AllMetrics {
		v, err := c.table.Aggregate(counters, m)
		if err != nil {
			return nil, err
		}
		out[m] = v
	}
	return out, nil
}

// FormatTable renders the event table like the paper's Table I.
func FormatTable(dev *hw.Device) (string, error) {
	t, err := Table(dev)
	if err != nil {
		return "", err
	}
	out := fmt.Sprintf("Performance events for %s:\n", dev.Name)
	for _, m := range backend.AllMetrics {
		out += fmt.Sprintf("  %-18s", m)
		for i, e := range t[m] {
			if i > 0 {
				out += ", "
			}
			out += e.String()
		}
		out += "\n"
	}
	return out, nil
}
