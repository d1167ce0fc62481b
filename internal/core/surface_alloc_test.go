package core

import (
	"context"
	"testing"

	"gpupower/internal/hw"
)

// TestColdSurfaceAllocsBounded is the allocation regression test for the
// cold DVFS-search path: a surface-cache miss — the cost every
// EvaluateOperatingPoints/FindBestConfig call paid before PR 4, and the
// cost the cluster simulator's decision-cache misses pay now. The compute
// rides the device's memoized Ladder()/LadderIndex and lays the four float
// columns into one backing array, so a full ladder evaluation is two
// allocations (Surface + backing) plus the amortized cache insert; the
// historical cold path was 11 allocs / 7.4 KB per op.
func TestColdSurfaceAllocsBounded(t *testing.T) {
	dev := hw.GTXTitanX()
	m := surfaceTestModel(dev, 17)
	u := Utilization{hw.SP: 0.8, hw.DRAM: 0.4, hw.L2: 0.2, hw.Int: 0.1}
	ref := dev.DefaultConfig()
	c := NewSurfaceCache(64)
	ctx := context.Background()

	// Distinct utilizations, built before the measurement: every run is a
	// Get for a key the cache has never seen, so a full ladder recompute.
	const runs = 200
	utils := make([]Utilization, runs+2)
	for i := range utils {
		utils[i] = u.Clone()
		utils[i][hw.Int] = float64(i) / 1000
	}
	next := 0

	// Warm the per-device memoization (ladder + index) so the measurement
	// sees the steady state every later caller sees.
	if _, err := c.Get(ctx, m, dev, ref, utils[next]); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(runs, func() {
		next++
		if _, err := c.Get(ctx, m, dev, ref, utils[next]); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 4
	if allocs > maxAllocs {
		t.Fatalf("cold surface compute allocates %.1f times per op, want <= %d", allocs, maxAllocs)
	}
}
