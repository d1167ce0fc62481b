// Prediction surfaces: memoized evaluations of a fitted model over a
// device's full frequency ladder (DESIGN.md §10).
//
// The DVFS search, the real-time governor and the auto-tuner all ask the
// same question — "what are power, relative time, relative energy and EDP
// at every ladder configuration for this utilization vector?" — and they
// ask it repeatedly for the same (model, device, reference, utilization)
// tuple: every governor decision for an already-profiled kernel, every
// repeated FindBestConfig in a sweep. A Surface answers it once; the
// sharded SurfaceCache makes the answer safe to share across goroutines.
//
// Invalidation is generational: the cache key includes Model.Generation(),
// a process-unique value drawn lazily per model instance. A refit returns a
// new *Model and therefore a new generation; in-place mutation requires an
// explicit InvalidateSurfaces call. Stale generations are evicted when a
// shard reaches capacity. Errors (voltage-table misses, non-positive
// reference power, cancellation) are never cached.
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

// NonPositiveRefPowerError reports a reference-configuration power
// prediction that is zero or negative, which makes every relative-energy
// quantity undefined. Callers that need a domain-specific message unwrap it
// with errors.As.
type NonPositiveRefPowerError struct {
	Power float64
}

func (e *NonPositiveRefPowerError) Error() string {
	return fmt.Sprintf("core: non-positive reference power prediction %g", e.Power)
}

// Surface is one memoized prediction surface: the model evaluated for one
// utilization vector at every configuration of a device ladder, with the
// derived relative-time/energy/EDP columns the DVFS consumers need. All
// slices share ladder order (index i ↔ Configs[i]) and are read-only after
// construction — a Surface is shared across goroutines by the cache.
//
// Gen is the generation of the model the surface was computed from
// (Model.Generation() at computation time). Derived per-surface caches —
// the cluster simulator's governor-decision cache is the canonical one —
// key their entries by it, so a refit or an InvalidateSurfaces call
// orphans the derived results exactly when it orphans the surface.
type Surface struct {
	Device   string
	Ref      hw.Config
	RefPower float64
	Gen      uint64

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
	if refPower <= 0 {
		return nil, &NonPositiveRefPowerError{Power: refPower}
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
// so the key hashes through the built-in map; utilization is flattened to
// a fixed array in canonical order, making two maps with equal entries
// equal keys.
type surfaceKey struct {
	gen    uint64
	device string
	ref    hw.Config
	util   flatUtil
}

// FNV-1a parameters for surfaceKey sharding.
const (
	surfaceFNVOffset uint64 = 14695981039346656037
	surfaceFNVPrime  uint64 = 1099511628211
)

// surfaceFNVMix folds one 64-bit word into an FNV-1a hash byte by byte. A
// package function rather than a closure keeps the sharding path free of
// closure allocation (alloccheck proves the warm Get path).
func surfaceFNVMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= surfaceFNVPrime
	}
	return h
}

// shard maps the key to a cache shard with FNV-1a over the key's bytes.
func (k *surfaceKey) shard() int {
	h := surfaceFNVOffset
	h = surfaceFNVMix(h, k.gen)
	for i := 0; i < len(k.device); i++ {
		h ^= uint64(k.device[i])
		h *= surfaceFNVPrime
	}
	h = surfaceFNVMix(h, math.Float64bits(k.ref.CoreMHz))
	h = surfaceFNVMix(h, math.Float64bits(k.ref.MemMHz))
	for _, v := range k.util {
		h = surfaceFNVMix(h, math.Float64bits(v))
	}
	return int(h % surfaceShards)
}

// surfaceShards is the lock-striping factor. 16 keeps contention negligible
// for the governor's worst case (one decision stream per kernel across a
// pool of workers) without bloating the zero-entry footprint.
const surfaceShards = 16

// surfaceShard is one stripe: an RWMutex-guarded map slice of the cache.
type surfaceShard struct {
	mu      sync.RWMutex
	entries map[surfaceKey]*Surface
}

// SurfaceCache memoizes prediction surfaces per (model generation, device,
// reference, utilization). It is safe for concurrent use: reads take a
// shard read-lock, and the surfaces themselves are immutable after
// construction. Capacity is bounded per shard; on overflow, entries from
// stale generations are evicted first, then the shard resets (the cache is
// a performance device — dropping entries is always correct).
type SurfaceCache struct {
	shards   [surfaceShards]surfaceShard
	capacity int

	// hits and misses count warm and cold Get calls across all shards; the
	// serving layer's /metrics endpoint exports them. A concurrent
	// double-compute counts as one miss per computing caller.
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewSurfaceCache returns a cache bounded to perShardCapacity entries per
// shard (minimum 1).
func NewSurfaceCache(perShardCapacity int) *SurfaceCache {
	if perShardCapacity < 1 {
		perShardCapacity = 1
	}
	c := &SurfaceCache{capacity: perShardCapacity}
	for i := range c.shards {
		c.shards[i].entries = make(map[surfaceKey]*Surface)
	}
	return c
}

// Surfaces is the process-wide default cache used by the DVFS search, the
// governor and the auto-tuner. 64 entries × 16 shards comfortably covers a
// multi-kernel application sweep per fitted model.
var Surfaces = NewSurfaceCache(64)

// Get returns the memoized surface for (m, dev, ref, u), computing and
// caching it on miss. The warm path costs one atomic load, one map lookup
// under a read-lock and no allocation. Cancellation: the warm path checks
// ctx once on entry; a cold computation additionally checks per ladder
// configuration. Errors are returned, never cached.
//
//gpower:noalloc the warm path is one atomic load and a read-locked map hit
func (c *SurfaceCache) Get(ctx context.Context, m *Model, dev *hw.Device, ref hw.Config, u Utilization) (*Surface, error) {
	if err := backend.CheckContext(ctx, "core: prediction surface"); err != nil {
		return nil, err
	}
	key := surfaceKey{gen: m.Generation(), device: dev.Name, ref: ref, util: flattenUtil(u)}
	sh := &c.shards[key.shard()]
	sh.mu.RLock()
	s := sh.entries[key]
	sh.mu.RUnlock()
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
	s.Gen = key.gen
	sh.mu.Lock()
	if cur, ok := sh.entries[key]; ok {
		// A concurrent caller computed the same surface first; adopt theirs
		// so every holder shares one immutable instance.
		s = cur
	} else {
		if len(sh.entries) >= c.capacity {
			//gpower:allocs cold overflow: stale-generation eviction may reset the shard map
			c.evictLocked(sh, key.gen)
		}
		//gpower:allocs cold miss: inserting the freshly computed surface may grow the shard map
		sh.entries[key] = s
	}
	sh.mu.Unlock()
	return s, nil
}

// evictLocked reclaims space in a full shard: entries from generations
// other than liveGen go first (they belong to replaced or invalidated
// models); if the shard is still full, it resets. Iteration order is
// irrelevant — eviction only ever deletes, so the surviving set does not
// depend on it.
func (c *SurfaceCache) evictLocked(sh *surfaceShard, liveGen uint64) {
	for k := range sh.entries {
		if k.gen != liveGen {
			delete(sh.entries, k)
		}
	}
	if len(sh.entries) >= c.capacity {
		sh.entries = make(map[surfaceKey]*Surface, c.capacity)
	}
}

// Stats reports the cumulative warm (hit) and cold (miss) Get counts —
// the cache-effectiveness signal the metrics layer exports.
func (c *SurfaceCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Len reports the total number of cached surfaces (diagnostics).
func (c *SurfaceCache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.RLock()
		n += len(c.shards[i].entries)
		c.shards[i].mu.RUnlock()
	}
	return n
}
