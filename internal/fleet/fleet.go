// Package fleet fits many per-device power models concurrently — the
// "model registry" scenario: a site operates a heterogeneous fleet of GPUs
// (several catalog architectures, several silicon instances per
// architecture) and wants one fitted Section III-D model per device.
//
// The package composes the pieces the rest of the repository already
// guarantees are safe to drive concurrently: each fleet member owns its own
// simulated device (its backend) and profiler (measurements on one member are
// single-goroutine, members are independent), and each pool worker owns one
// reusable core.FitWorkspace, so back-to-back fits on a worker allocate no
// workspace memory. Fits write disjoint result slots and reuse never
// changes a fitted bit (core's workspace-reset contract), so a fleet fit of
// N devices is bitwise-identical to N independent Estimate calls — the
// fleet tests pin this.
package fleet

import (
	"context"
	"fmt"
	"time"

	"gpupower/internal/backend"
	"gpupower/internal/core"
	"gpupower/internal/hw"
	"gpupower/internal/parallel"
	"gpupower/internal/profiler"
	"gpupower/internal/sim"
)

// Spec identifies one fleet member: a catalog device plus the per-instance
// seed (distinct silicon instances of the same architecture get distinct
// seeds and therefore distinct process variation).
type Spec struct {
	Device string
	Seed   uint64
}

// String renders a stable member label ("GTX Titan X#7").
func (s Spec) String() string { return fmt.Sprintf("%s#%d", s.Device, s.Seed) }

// Registry returns n fleet members drawn round-robin from the device
// catalog, seeded baseSeed, baseSeed+1, … — the synthetic stand-in for a
// site's device inventory.
func Registry(n int, baseSeed uint64) []Spec {
	devs := hw.AllDevices()
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = Spec{Device: devs[i%len(devs)].Name, Seed: baseSeed + uint64(i)}
	}
	return specs
}

// Member is one opened fleet member: the device description plus the
// long-lived measurement stack (backend, profiler) the serving registry
// keeps after fitting. Measurements on one member are single-goroutine
// (the rig concurrency contract); members are independent.
type Member struct {
	Spec     Spec
	Device   *hw.Device
	Backend  backend.Backend
	Profiler *profiler.Profiler
}

// OpenMember opens the simulator-backed measurement stack for one spec.
func OpenMember(spec Spec) (*Member, error) {
	s, err := sim.Open(spec.Device, spec.Seed)
	if err != nil {
		return nil, err
	}
	p, err := profiler.New(s)
	if err != nil {
		return nil, err
	}
	return &Member{Spec: spec, Device: s.Device(), Backend: s, Profiler: p}, nil
}

// OpenMembers opens every spec concurrently; slot i belongs to specs[i].
func OpenMembers(specs []Spec) ([]*Member, error) {
	return parallel.Map(len(specs), func(i int) (*Member, error) {
		return OpenMember(specs[i])
	})
}

// BuildDataset measures the member's full training dataset (83
// microbenchmarks at every ladder configuration) through its own profiler.
func (m *Member) BuildDataset(ctx context.Context) (*core.Dataset, error) {
	d, err := core.BuildDataset(ctx, m.Profiler)
	if err != nil {
		return nil, fmt.Errorf("fleet: dataset for %s: %w", m.Spec, err)
	}
	return d, nil
}

// Fit is one member's fitted result. Member carries the measurement stack
// the fit ran over, so a fleet fit hands the serving registry everything a
// per-device entry needs — not just a bare model.
type Fit struct {
	Spec   Spec
	Member *Member
	Model  *core.Model
}

// Result is a fleet fit: one Fit per input spec, in spec order, plus the
// wall-clock duration of the fitting phase.
type Result struct {
	Fits []Fit
	// Wall is the wall-clock duration of the concurrent fitting phase
	// (dataset measurement excluded).
	Wall time.Duration
}

// BuildMemberDatasets measures one training dataset per already-open member,
// fanning out across members (each member's measurement pipeline is
// confined to one goroutine, per the rig concurrency contract). Result slot
// i belongs to members[i].
func BuildMemberDatasets(ctx context.Context, members []*Member) ([]*core.Dataset, error) {
	return parallel.Map(len(members), func(i int) (*core.Dataset, error) {
		return members[i].BuildDataset(ctx)
	})
}

// FitDatasets fits one model per dataset concurrently. Each pool worker
// holds one reusable core.FitWorkspace across all the fits it executes;
// models land in slot i for datasets[i]. Models are bitwise-identical to
// individual core.Estimate calls on the same datasets.
func FitDatasets(ctx context.Context, datasets []*core.Dataset, opts *core.EstimatorOptions) ([]*core.Model, error) {
	workspaces := make([]*core.FitWorkspace, parallel.Workers())
	for w := range workspaces {
		workspaces[w] = core.NewFitWorkspace()
	}
	models := make([]*core.Model, len(datasets))
	err := parallel.ForEachWorker(len(datasets), func(w, i int) error {
		m, err := core.EstimateWith(ctx, datasets[i], opts, workspaces[w])
		if err != nil {
			return err
		}
		models[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return models, nil
}

// FitAll measures and fits the whole fleet: datasets first (untimed — in
// production the measurements come from the devices themselves), then the
// concurrent fitting phase, timed.
func FitAll(ctx context.Context, specs []Spec, opts *core.EstimatorOptions) (*Result, error) {
	members, err := OpenMembers(specs)
	if err != nil {
		return nil, err
	}
	datasets, err := BuildMemberDatasets(ctx, members)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	models, err := FitDatasets(ctx, datasets, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{Fits: make([]Fit, len(specs)), Wall: time.Since(start)}
	for i := range specs {
		res.Fits[i] = Fit{Spec: specs[i], Member: members[i], Model: models[i]}
	}
	return res, nil
}
