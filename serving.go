package gpupower

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"gpupower/internal/fleet"
	"gpupower/internal/registry"
	"gpupower/internal/serve"
)

// Serving façade: the long-running gpowerd pieces re-exported as the
// supported public surface. A process builds a ModelRegistry (one entry
// per device, fitted concurrently), then serves it over HTTP with
// NewPowerServer; entries keep their measurement stacks, so any device
// can be re-fitted in place (RegistryEntry.Refit) while predictions
// continue on the old model until the atomic swap.
type (
	// ModelRegistry is the concurrency-safe set of fitted per-device models
	// a serving process holds.
	ModelRegistry = registry.Registry
	// RegistryEntry pairs one device's measurement stack with its current
	// fitted model behind an atomic pointer.
	RegistryEntry = registry.Entry
	// FitMeta describes how an entry's current model was produced.
	FitMeta = registry.FitMeta
	// FleetSpec identifies one fleet member: catalog device + instance seed.
	FleetSpec = fleet.Spec
	// ServeOptions tunes the HTTP serving layer.
	ServeOptions = serve.Options
)

// FleetSpecs returns n fleet member specs drawn round-robin from the
// device catalog, seeded baseSeed, baseSeed+1, ….
func FleetSpecs(n int, baseSeed uint64) []FleetSpec {
	return fleet.Registry(n, baseSeed)
}

// BuildModelRegistry measures and fits every spec concurrently (per-member
// datasets, per-worker fit workspaces) and returns a registry with one
// entry per spec, in spec order. Fits are bitwise-identical to individual
// FitPowerModel calls on the same specs. Each entry keeps its member's
// backend and profiler, so any device can be re-fitted later without
// reopening anything. Duplicate specs are rejected before any measurement.
func BuildModelRegistry(ctx context.Context, specs []FleetSpec, opts *EstimatorOptions) (*ModelRegistry, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("gpupower: no fleet specs")
	}
	seen := make(map[string]bool, len(specs))
	for _, s := range specs {
		if seen[s.String()] {
			return nil, fmt.Errorf("gpupower: duplicate fleet spec %q", s)
		}
		seen[s.String()] = true
	}
	res, err := fleet.FitAll(ctx, specs, opts)
	if err != nil {
		return nil, err
	}
	r := registry.New()
	now := time.Now()
	perFit := res.Wall / time.Duration(len(res.Fits))
	for _, f := range res.Fits {
		meta := registry.FitMeta{FitWall: perFit, FittedAt: now, Source: "simulator"}
		e, err := registry.NewEntry(f.Spec.String(), f.Member.Device, f.Member.Backend, f.Member.Profiler, f.Model, meta)
		if err != nil {
			return nil, err
		}
		if err := r.Add(e); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// NewModelRegistry returns an empty registry, for processes that assemble
// entries one by one (e.g. gpowerd's trace-replay demo mode).
func NewModelRegistry() *ModelRegistry { return registry.New() }

// FitRegistryEntry fits the handle's device and wraps the result into a
// registry entry that keeps this handle's backend and profiler — the
// entry can be re-fitted later without reopening anything. It works over
// any backend, including trace replay (OpenTrace), which is how gpowerd
// serves real-measurement models with zero hardware. name defaults to the
// device name; source labels where the training data came from
// ("simulator", "trace", ...).
func (g *GPU) FitRegistryEntry(ctx context.Context, name, source string, opts *EstimatorOptions) (*RegistryEntry, error) {
	start := time.Now()
	m, err := g.FitPowerModelContext(ctx, opts)
	if err != nil {
		return nil, err
	}
	meta := registry.FitMeta{
		FitWall:  time.Since(start),
		FittedAt: time.Now(),
		Source:   source,
	}
	if name == "" {
		name = g.dev.Name
	}
	return registry.NewEntry(name, g.dev, g.b, g.prof, m, meta)
}

// NewPowerServer returns the gpowerd HTTP handler over a registry:
// /healthz, /v1/devices, /v1/predict, /v1/govern, /v1/breakdown and
// /metrics (Prometheus text exposition). opts may be nil for defaults.
func NewPowerServer(reg *ModelRegistry, opts *ServeOptions) http.Handler {
	return serve.New(reg, opts)
}
