// Prediction surfaces: memoized evaluations of a fitted model over a
// device's full frequency ladder (DESIGN.md §10).
//
// The DVFS search, the real-time governor and the auto-tuner all ask the
// same question — "what are power, relative time, relative energy and EDP
// at every ladder configuration for this utilization vector?" — and they
// ask it repeatedly for the same (model, device, reference, utilization)
// tuple: every governor decision for an already-profiled kernel, every
// repeated FindBestConfig in a sweep. A Surface answers it once; the
// SurfaceCache makes the answer safe to share across goroutines.
//
// The cache keys a model by identity (its *Model). A fitted model is
// immutable: a refit, a deserialization or an edited copy is a different
// *Model, so a surface can only ever answer for the model it was computed
// from. Edit a copy, never a model that has been served. Errors
// (voltage-table misses, cancellation) are never cached.
package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"gpupower/internal/backend"
	"gpupower/internal/hw"
)

// flatUtil is a utilization vector flattened into the canonical component
// order — CoreOmegaOrder (= hw.CoreComponents) then DRAM — matching the
// estimator's utilization blocks. Flattening once moves every hot prediction loop
// off map lookups while preserving the exact values the map path reads.
type flatUtil [nUtil]float64

// flattenUtil projects u onto the canonical order. Missing components read
// as zero, exactly as they do through the map.
func flattenUtil(u Utilization) flatUtil {
	var f flatUtil
	for i, c := range CoreOmegaOrder {
		f[i] = u[c]
	}
	f[nUtil-1] = u[hw.DRAM]
	return f
}

// flatOmega flattens the model's dynamic coefficients into the same order.
func (m *Model) flatOmega() [nUtil]float64 {
	var om [nUtil]float64
	for i, c := range CoreOmegaOrder {
		om[i] = m.OmegaCore[c]
	}
	om[nUtil-1] = m.OmegaMem
	return om
}

// predictFlat is the map-free fast path of Predict: term for term the
// arithmetic of Decompose plus the hw.SumComponents fold, evaluated on
// flattened utilization and coefficient blocks. surface_test.go pins the
// bitwise equality of the two paths.
func (m *Model) predictFlat(uf *flatUtil, om *[nUtil]float64, cfg hw.Config) (float64, error) {
	vc, vm, err := m.Voltages.At(cfg)
	if err != nil {
		return 0, err
	}
	// Eq. 6 + Eq. 7 constant part, association identical to Decompose.
	constant := m.Beta[0]*vc + vc*vc*cfg.CoreMHz*m.Beta[1] +
		m.Beta[2]*vm + vm*vm*cfg.MemMHz*m.Beta[3]
	// Component fold in hw.Components order (core components then DRAM),
	// replicating Breakdown.Total's SumComponents association.
	var s float64
	for i := 0; i < nUtil-1; i++ {
		s += vc * vc * cfg.CoreMHz * om[i] * uf[i]
	}
	s += vm * vm * cfg.MemMHz * om[nUtil-1] * uf[nUtil-1]
	return constant + s, nil
}

// relTimeFlat is EstimateRelativeTime on a flattened utilization block:
// same max scans in the same component order, same arithmetic.
func relTimeFlat(uf *flatUtil, ref, cfg hw.Config) float64 {
	var coreU float64
	for i := 0; i < nUtil-1; i++ {
		if uf[i] > coreU {
			coreU = uf[i]
		}
	}
	memU := uf[nUtil-1]
	bound := math.Max(coreU, memU)
	if bound <= 0 {
		return 1 // no measurable activity: latency-bound, frequency-insensitive
	}
	coreTime := coreU * ref.CoreMHz / cfg.CoreMHz
	memTime := memU * ref.MemMHz / cfg.MemMHz
	return math.Max(coreTime, memTime) / bound
}

// PredictAll evaluates the model at utilization u for every configuration
// in configs, writing the predictions into dst (len(configs)). It is the
// batch sibling of Predict — identical per-point arithmetic, one flatten
// of u and of the coefficient maps for the whole batch, no allocation.
//
//gpower:noalloc batch predictions allocate only on error paths
func (m *Model) PredictAll(u Utilization, configs []hw.Config, dst []float64) error {
	if len(dst) != len(configs) {
		//gpower:allocs caller-bug error path: mismatched destination length
		return fmt.Errorf("core: PredictAll dst length %d, want %d", len(dst), len(configs))
	}
	uf := flattenUtil(u)
	om := m.flatOmega()
	for i, cfg := range configs {
		p, err := m.predictFlat(&uf, &om, cfg)
		if err != nil {
			return err
		}
		dst[i] = p
	}
	return nil
}

// Surface is one memoized prediction surface: the model evaluated for one
// utilization vector at every configuration of a device ladder, with the
// derived relative-time/energy/EDP columns the DVFS consumers need. All
// slices share ladder order (index i ↔ Configs[i]) and are read-only after
// construction — a Surface is shared across goroutines by the cache.
// RefPower may be zero or negative; callers that normalize by it check it.
type Surface struct {
	Device   string
	Ref      hw.Config
	RefPower float64

	Configs   []hw.Config
	PowerW    []float64
	RelTime   []float64
	RelEnergy []float64
	RelEDP    []float64

	dev *hw.Device
}

// Len returns the number of ladder points.
func (s *Surface) Len() int { return len(s.Configs) }

// Point returns the ladder index of cfg, or false when cfg is not a ladder
// configuration of the surface's device. The lookup rides the device's
// memoized ladder index, so building a surface allocates no per-surface map.
func (s *Surface) Point(cfg hw.Config) (int, bool) {
	return s.dev.LadderIndex(cfg)
}

// computeSurface evaluates the full ladder. Cancellation is checked per
// configuration, so a canceled fit aborts promptly even on large ladders.
//
// Cold-path allocation budget: the ladder enumeration and its index are the
// device's memoized Ladder()/LadderIndex (shared, read-only), and the four
// float columns are views into one backing array — a cold surface costs two
// allocations (the Surface and the backing), down from the eleven the
// per-call AllConfigs + four makes + index map used to take. The cluster
// simulator's decision-cache misses land exactly here.
func computeSurface(ctx context.Context, m *Model, dev *hw.Device, ref hw.Config, uf *flatUtil) (*Surface, error) {
	om := m.flatOmega()
	refPower, err := m.predictFlat(uf, &om, ref)
	if err != nil {
		return nil, err
	}
	configs := dev.Ladder()
	n := len(configs)
	back := make([]float64, 4*n)
	s := &Surface{
		Device:    dev.Name,
		Ref:       ref,
		RefPower:  refPower,
		Configs:   configs,
		PowerW:    back[0*n : 1*n : 1*n],
		RelTime:   back[1*n : 2*n : 2*n],
		RelEnergy: back[2*n : 3*n : 3*n],
		RelEDP:    back[3*n : 4*n : 4*n],
		dev:       dev,
	}
	for i, cfg := range configs {
		if err := backend.CheckContext(ctx, "core: prediction surface"); err != nil {
			return nil, err
		}
		pw, err := m.predictFlat(uf, &om, cfg)
		if err != nil {
			return nil, err
		}
		rt := relTimeFlat(uf, ref, cfg)
		relEnergy := pw * rt / refPower
		s.PowerW[i] = pw
		s.RelTime[i] = rt
		s.RelEnergy[i] = relEnergy
		s.RelEDP[i] = relEnergy * rt
	}
	return s, nil
}

// surfaceKey identifies one memoized surface. Every field is comparable,
// so the key hashes through the built-in map; the model is keyed by
// identity, and utilization is flattened to a fixed array in canonical
// order, making two maps with equal entries equal keys.
type surfaceKey struct {
	model  *Model
	device string
	ref    hw.Config
	util   flatUtil
}

// SurfaceCache memoizes prediction surfaces per (model, device, reference,
// utilization). It is safe for concurrent use: reads take the read-lock,
// and the surfaces themselves are immutable after construction. Capacity
// is bounded; on overflow, other models' entries are evicted first, then
// the map resets (the cache is a performance device — dropping entries is
// always correct).
type SurfaceCache struct {
	mu       sync.RWMutex
	entries  map[surfaceKey]*Surface
	capacity int

	// hits and misses count warm and cold Get calls; the serving layer's
	// /metrics endpoint exports them. A concurrent double-compute counts
	// as one miss per computing caller.
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewSurfaceCache returns a cache bounded to capacity entries (minimum 1).
func NewSurfaceCache(capacity int) *SurfaceCache {
	if capacity < 1 {
		capacity = 1
	}
	return &SurfaceCache{entries: make(map[surfaceKey]*Surface), capacity: capacity}
}

// Surfaces is the process-wide default cache used by the DVFS search, the
// governor and the auto-tuner. 1024 entries comfortably cover a
// multi-kernel application sweep per fitted model.
var Surfaces = NewSurfaceCache(1024)

// Get returns the memoized surface for (m, dev, ref, u), computing and
// caching it on miss. The warm path costs one map lookup under the
// read-lock and no allocation. Cancellation: the warm path checks ctx once
// on entry; a cold computation additionally checks per ladder
// configuration. Errors are returned, never cached.
//
//gpower:noalloc the warm path is a read-locked map hit
func (c *SurfaceCache) Get(ctx context.Context, m *Model, dev *hw.Device, ref hw.Config, u Utilization) (*Surface, error) {
	if err := backend.CheckContext(ctx, "core: prediction surface"); err != nil {
		return nil, err
	}
	key := surfaceKey{model: m, device: dev.Name, ref: ref, util: flattenUtil(u)}
	c.mu.RLock()
	s := c.entries[key]
	c.mu.RUnlock()
	if s != nil {
		c.hits.Add(1)
		return s, nil
	}
	c.misses.Add(1)
	//gpower:allocs cold miss: computeSurface builds the two-allocation surface exactly once per key
	s, err := computeSurface(ctx, m, dev, ref, &key.util)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if cur, ok := c.entries[key]; ok {
		// A concurrent caller computed the same surface first; adopt theirs
		// so every holder shares one immutable instance.
		s = cur
	} else {
		if len(c.entries) >= c.capacity {
			//gpower:allocs cold overflow: eviction may reset the entry map
			c.evictLocked(m)
		}
		//gpower:allocs cold miss: inserting the freshly computed surface may grow the entry map
		c.entries[key] = s
	}
	c.mu.Unlock()
	return s, nil
}

// evictLocked reclaims space in a full cache: entries of models other than
// live go first (they belong to replaced models); if the cache is still
// full, it resets. Iteration order is irrelevant — eviction only ever
// deletes, so the surviving set does not depend on it.
func (c *SurfaceCache) evictLocked(live *Model) {
	for k := range c.entries {
		if k.model != live {
			delete(c.entries, k)
		}
	}
	if len(c.entries) >= c.capacity {
		c.entries = make(map[surfaceKey]*Surface, c.capacity)
	}
}

// Stats reports the cumulative warm (hit) and cold (miss) Get counts —
// the cache-effectiveness signal the metrics layer exports.
func (c *SurfaceCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Len reports the number of cached surfaces (diagnostics).
func (c *SurfaceCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}
