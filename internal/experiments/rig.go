// Package experiments contains one driver per table/figure of the paper's
// evaluation (Section V), plus baseline comparisons and ablations. Each
// driver returns a machine-readable result and can render the paper-style
// rows/series as text. All drivers are deterministic for a given seed. One
// ordered table (registry.go) lists the experiments and the batch modes
// (-exp all, -csv, -report) that run each.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"gpupower/internal/core"
	"gpupower/internal/hw"
	"gpupower/internal/parallel"
	"gpupower/internal/profiler"
	"gpupower/internal/sim"
)

// DefaultSeed is the seed used by the command-line harness and the Go
// benchmarks; every published number in EXPERIMENTS.md comes from it.
const DefaultSeed uint64 = 42

// Rig bundles everything an experiment needs on one device: the simulated
// GPU, its profiler, and (lazily) a fitted model with its training dataset.
//
// The measurement pipeline runs entirely through the profiler, which sees
// Sim only as a backend.Backend; experiments call Sim's own methods only
// for ground-truth comparisons (true breakdowns, third-party voltage
// readouts) that a real device would not expose either.
//
// Concurrency invariant: Dataset and Model are safe for concurrent use
// (mutex-guarded, and fitting only reads the dataset), but the profiler
// drives the simulated device's clock state, so *measurements* on one rig
// must not be issued from two goroutines at once. Experiments therefore
// fan out across rigs — per device and per seed — never within one.
type Rig struct {
	Device   *hw.Device
	Sim      *sim.Device
	Profiler *profiler.Profiler

	mu      sync.Mutex
	dataset *core.Dataset
	model   *core.Model
}

// NewRig builds a rig for a catalog device.
func NewRig(deviceName string, seed uint64) (*Rig, error) {
	s, err := sim.Open(deviceName, seed)
	if err != nil {
		return nil, err
	}
	p, err := profiler.New(s)
	if err != nil {
		return nil, err
	}
	return &Rig{Device: s.Device(), Sim: s, Profiler: p}, nil
}

// Dataset measures (or returns the cached) full training dataset: the 83
// microbenchmarks profiled at the reference configuration and measured at
// every V-F configuration.
func (r *Rig) Dataset(ctx context.Context) (*core.Dataset, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dataset != nil {
		return r.dataset, nil
	}
	d, err := core.BuildDataset(ctx, r.Profiler)
	if err != nil {
		return nil, fmt.Errorf("experiments: building dataset on %s: %w", r.Device.Name, err)
	}
	r.dataset = d
	return d, nil
}

// Model fits (or returns the cached) DVFS-aware power model.
func (r *Rig) Model(ctx context.Context) (*core.Model, error) {
	d, err := r.Dataset(ctx)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.model != nil {
		return r.model, nil
	}
	m, err := core.Estimate(ctx, d, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: fitting model on %s: %w", r.Device.Name, err)
	}
	r.model = m
	return m, nil
}

// rigCache shares fitted rigs across experiments within one process (the
// benchmark harness regenerates many figures from the same three models).
var (
	rigCacheMu sync.Mutex
	rigCache   = map[string]*Rig{}
)

// SharedRig returns a process-wide cached rig for (deviceName, seed).
func SharedRig(deviceName string, seed uint64) (*Rig, error) {
	key := fmt.Sprintf("%s/%d", deviceName, seed)
	rigCacheMu.Lock()
	defer rigCacheMu.Unlock()
	if r, ok := rigCache[key]; ok {
		return r, nil
	}
	r, err := NewRig(deviceName, seed)
	if err != nil {
		return nil, err
	}
	rigCache[key] = r
	return r, nil
}

// SharedRigs resolves (and warms) one shared rig per device name, fitting
// the models in parallel. Each rig owns its simulator, profiler, dataset
// and model, so the per-device pipelines are independent; result slot i
// always belongs to deviceNames[i]. RunCluster fits its fleet through it;
// the other multi-device drivers fan out per device themselves (RunFig7,
// RunRobustness) or walk the devices in turn.
func SharedRigs(ctx context.Context, deviceNames []string, seed uint64) ([]*Rig, error) {
	return parallel.Map(len(deviceNames), func(i int) (*Rig, error) {
		r, err := SharedRig(deviceNames[i], seed)
		if err != nil {
			return nil, err
		}
		if _, err := r.Model(ctx); err != nil {
			return nil, err
		}
		return r, nil
	})
}

// AllDeviceNames lists the catalog devices in their canonical order.
func AllDeviceNames() []string {
	devs := hw.AllDevices()
	names := make([]string, len(devs))
	for i, d := range devs {
		names[i] = d.Name
	}
	return names
}
