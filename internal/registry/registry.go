// Package registry holds the fitted per-device power models a long-running
// gpowerd process serves from: a concurrency-safe map of entries, each
// pairing one device's measurement stack (backend, profiler) with the
// current fitted *core.Model and its fit metadata.
//
// Entries support atomic model swap: a re-fit installs its new model with
// one pointer store, so readers never observe a half-updated model and
// never block on a fit in progress. Readers snapshot the model once per
// batch of predictions, which makes every batch internally consistent —
// entirely from the old model or entirely from the new one, never a mix
// (the registry swap tests pin this under the race detector). Each entry
// numbers its installs (FitMeta.Generation), so clients can detect model
// turnover.
package registry

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gpupower/internal/backend"
	"gpupower/internal/core"
	"gpupower/internal/hw"
	"gpupower/internal/profiler"
)

// FitMeta describes how an entry's current model was produced.
type FitMeta struct {
	// Generation numbers the entry's installs: 1 for the model NewEntry
	// installs, one more per Swap. The entry assigns it.
	Generation uint64
	// FitWall is the wall-clock duration of the fitting phase.
	FitWall time.Duration
	// FittedAt is when the model was installed.
	FittedAt time.Time
	// Source describes where the training data came from
	// ("simulator", "trace", ...).
	Source string
}

// fitted is the atomically-swapped unit: a model and its metadata always
// travel together, so a reader can never pair an old model with new
// metadata.
type fitted struct {
	model *core.Model
	meta  FitMeta
}

// Entry is one registered device: its descriptor, its (optional)
// measurement stack, and the current fitted model behind an atomic pointer.
type Entry struct {
	name string
	dev  *hw.Device

	// bk and prof are the measurement stack the model was fitted over.
	// They are nil for model-only entries (e.g. a model loaded from disk);
	// Refit requires them.
	bk   backend.Backend
	prof *profiler.Profiler

	cur atomic.Pointer[fitted]

	// fitMu serializes re-fits (the measurement pipeline is
	// single-goroutine); readers never take it.
	fitMu sync.Mutex
}

// NewEntry builds an entry serving model m for the named device. The
// backend and profiler may be nil for model-only entries. meta.Generation
// is set to 1.
func NewEntry(name string, dev *hw.Device, bk backend.Backend, prof *profiler.Profiler, m *core.Model, meta FitMeta) (*Entry, error) {
	if name == "" {
		return nil, fmt.Errorf("registry: empty entry name")
	}
	if dev == nil || m == nil {
		return nil, fmt.Errorf("registry: entry %q needs a device and a model", name)
	}
	if m.DeviceName != dev.Name {
		return nil, fmt.Errorf("registry: entry %q: model fitted on %q, device is %q",
			name, m.DeviceName, dev.Name)
	}
	e := &Entry{name: name, dev: dev, bk: bk, prof: prof}
	meta.Generation = 1
	e.cur.Store(&fitted{model: m, meta: meta})
	return e, nil
}

// Name returns the entry's registry key (e.g. "GTX Titan X#42").
func (e *Entry) Name() string { return e.name }

// Device returns the entry's device descriptor.
func (e *Entry) Device() *hw.Device { return e.dev }

// Snapshot returns the current model and its metadata as one consistent
// pair. Callers serving a batch of predictions must call this once and use
// the snapshot for the whole batch; that is what makes a batch atomic with
// respect to Swap.
//
//gpower:noalloc one atomic pointer load; the meta struct is copied on the stack
func (e *Entry) Snapshot() (*core.Model, FitMeta) {
	f := e.cur.Load()
	return f.model, f.meta
}

// Swap atomically installs a new fitted model under the next generation
// and returns the previous one. In-flight readers finish their batches on
// the old snapshot; its memoized prediction surfaces stay valid for them
// until the surface cache evicts them on overflow.
func (e *Entry) Swap(m *core.Model, meta FitMeta) (*core.Model, error) {
	if m == nil {
		return nil, fmt.Errorf("registry: entry %q: nil model in swap", e.name)
	}
	if m.DeviceName != e.dev.Name {
		return nil, fmt.Errorf("registry: entry %q: model fitted on %q, device is %q",
			e.name, m.DeviceName, e.dev.Name)
	}
	for {
		old := e.cur.Load()
		meta.Generation = old.meta.Generation + 1
		next := &fitted{model: m, meta: meta}
		if e.cur.CompareAndSwap(old, next) {
			return old.model, nil
		}
	}
}

// Refit measures a fresh training dataset through the entry's own
// profiler, fits a new model, and atomically installs it. Concurrent
// Refit calls on one entry serialize (the measurement pipeline is
// single-goroutine); predictions continue on the old model until the
// instant of the swap.
func (e *Entry) Refit(ctx context.Context, opts *core.EstimatorOptions) (*core.Model, error) {
	if e.prof == nil {
		return nil, fmt.Errorf("registry: entry %q is model-only (no profiler); cannot refit", e.name)
	}
	e.fitMu.Lock()
	defer e.fitMu.Unlock()
	d, err := core.BuildDataset(ctx, e.prof)
	if err != nil {
		return nil, fmt.Errorf("registry: refit %q: %w", e.name, err)
	}
	start := time.Now()
	m, err := core.Estimate(ctx, d, opts)
	if err != nil {
		return nil, fmt.Errorf("registry: refit %q: %w", e.name, err)
	}
	_, oldMeta := e.Snapshot()
	meta := FitMeta{
		FitWall:  time.Since(start),
		FittedAt: time.Now(),
		Source:   oldMeta.Source,
	}
	if _, err := e.Swap(m, meta); err != nil {
		return nil, err
	}
	return m, nil
}

// Registry is the concurrency-safe set of entries a gpowerd process
// serves. Lookups take a read lock; entry model access is lock-free.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*Entry
	order   []string // insertion order, for stable listings
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{entries: map[string]*Entry{}}
}

// Add registers an entry under its name. Duplicate names are an error —
// replacing a model goes through Entry.Swap, not re-registration.
func (r *Registry) Add(e *Entry) error {
	if e == nil {
		return fmt.Errorf("registry: nil entry")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[e.name]; dup {
		return fmt.Errorf("registry: duplicate entry %q", e.name)
	}
	r.entries[e.name] = e
	r.order = append(r.order, e.name)
	return nil
}

// Lookup returns the named entry.
func (r *Registry) Lookup(name string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// Names returns the registered names in insertion order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Entries returns the entries in insertion order.
func (r *Registry) Entries() []*Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	es := make([]*Entry, 0, len(r.order))
	for _, n := range r.order {
		es = append(es, r.entries[n])
	}
	return es
}

// Len returns the number of registered entries.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}
