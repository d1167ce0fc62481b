package cluster

import (
	"math"
	"sync"
	"sync/atomic"

	"gpupower/internal/core"
	"gpupower/internal/governor"
)

// Decision is one memoized governor verdict: the policy-optimal ladder point
// of a prediction surface under a power cap and an optional relative-time
// bound. It carries the columns the simulator consumes per job so the event
// loop never re-touches the surface.
type Decision struct {
	// Index is the ladder index of the chosen configuration.
	Index int
	// PowerW and RelTime are the surface columns at Index.
	PowerW  float64
	RelTime float64
}

// decisionKey identifies one memoized decision. Surfaces are immutable and
// shared (one instance per cache entry), so the surface pointer is the
// identity of (model, device, reference, utilization); the rest
// of the key is the governor question asked of it. Float knobs are keyed by
// their bit patterns so the key stays comparable without tolerance games.
type decisionKey struct {
	surf        *core.Surface
	policy      governor.Policy
	capBits     uint64
	stretchBits uint64
}

// DecisionCache memoizes governor decisions per prediction surface — the
// layer above the SurfaceCache. A fleet run asks the same question
// (device-model × kernel class × policy × cap × stretch) for every one of
// thousands of GPUs; the first ask pays the ladder scan, the rest are a
// read-locked map hit. Entries are keyed by surface identity, so a refit's
// surfaces are new pointers and miss. The cache resets when full.
type DecisionCache struct {
	mu       sync.RWMutex
	entries  map[decisionKey]Decision
	capacity int

	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewDecisionCache returns a cache bounded to capacity entries (minimum 1).
func NewDecisionCache(capacity int) *DecisionCache {
	if capacity < 1 {
		capacity = 1
	}
	return &DecisionCache{entries: make(map[decisionKey]Decision), capacity: capacity}
}

// Decisions is the process-wide default cache. A fleet's working set is
// |fleet device models| × |kernel classes| × |policy variants| — a few
// dozen, hundreds at the outside — so 1024 entries rarely fill.
var Decisions = NewDecisionCache(1024)

// Get returns the memoized decision for (s, policy, powerCap, maxRelTime),
// scanning the surface on miss via governor.DecideOnSurfaceBounded. Errors
// (no feasible ladder point) are returned, never cached.
//
//gpower:noalloc the warm path is a read-locked map hit; only misses insert
func (c *DecisionCache) Get(s *core.Surface, policy governor.Policy, powerCap, maxRelTime float64) (Decision, error) {
	key := decisionKey{
		surf:        s,
		policy:      policy,
		capBits:     math.Float64bits(powerCap),
		stretchBits: math.Float64bits(maxRelTime),
	}
	c.mu.RLock()
	d, ok := c.entries[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return d, nil
	}
	c.misses.Add(1)
	i, err := governor.DecideOnSurfaceBounded(s, policy, powerCap, maxRelTime)
	if err != nil {
		return Decision{}, err
	}
	d = Decision{Index: i, PowerW: s.PowerW[i], RelTime: s.RelTime[i]}
	c.mu.Lock()
	if len(c.entries) >= c.capacity {
		//gpower:allocs cold overflow: a full cache resets its entry map
		c.entries = make(map[decisionKey]Decision, c.capacity)
	}
	//gpower:allocs cold miss: inserting the freshly scanned decision may grow the entry map
	c.entries[key] = d
	c.mu.Unlock()
	return d, nil
}

// Stats reports cumulative warm (hit) and cold (miss) Get counts.
func (c *DecisionCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Len reports the number of cached decisions (diagnostics).
func (c *DecisionCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}
