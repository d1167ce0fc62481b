package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"gpupower/internal/hw"
	"gpupower/internal/stats"
)

// surfaceTestModel builds a fitted-shaped model with a non-trivial voltage
// table, cheap enough to construct per test.
func surfaceTestModel(dev *hw.Device, seed uint64) *Model {
	rng := stats.NewRNG(seed)
	volt := NewVoltageTable(dev.CoreFreqs, dev.MemFreqs)
	for mi := range volt.VCore {
		for ci := range volt.VCore[mi] {
			volt.VCore[mi][ci] = 0.85 + 0.3*rng.Float64()
			volt.VMem[mi][ci] = 0.85 + 0.3*rng.Float64()
		}
	}
	m := &Model{
		DeviceName: dev.Name,
		Ref:        dev.DefaultConfig(),
		Beta:       [4]float64{15, 0.017, 8, 0.0126},
		OmegaCore: map[hw.Component]float64{
			hw.Int: 0.025, hw.SP: 0.030, hw.DP: 0.020,
			hw.SF: 0.045, hw.Shared: 0.020, hw.L2: 0.030,
		},
		OmegaMem:        0.0334,
		Voltages:        volt,
		L2BytesPerCycle: dev.L2BytesPerCycle,
	}
	return m
}

func randomUtil(rng *stats.RNG) Utilization {
	u := Utilization{}
	for _, c := range hw.Components {
		if rng.Float64() < 0.7 {
			u[c] = rng.Float64()
		}
	}
	return u
}

// TestPredictAllMatchesPredict pins the flattened fast path (predictFlat,
// via PredictAll) to the map-walking Decompose+SumComponents path bitwise.
func TestPredictAllMatchesPredict(t *testing.T) {
	dev := hw.GTXTitanX()
	m := surfaceTestModel(dev, 1)
	rng := stats.NewRNG(2)
	configs := dev.AllConfigs()
	dst := make([]float64, len(configs))
	for trial := 0; trial < 20; trial++ {
		u := randomUtil(rng)
		if err := m.PredictAll(u, configs, dst); err != nil {
			t.Fatal(err)
		}
		for i, cfg := range configs {
			want, err := m.Predict(u, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("trial %d cfg %v: PredictAll %x, Predict %x (not bitwise equal)",
					trial, cfg, dst[i], want)
			}
		}
	}
}

// TestRelTimeFlatMatchesEstimateRelativeTime pins the flattened roofline to
// the map path bitwise, including the idle (bound ≤ 0) branch.
func TestRelTimeFlatMatchesEstimateRelativeTime(t *testing.T) {
	dev := hw.GTXTitanX()
	ref := dev.DefaultConfig()
	rng := stats.NewRNG(3)
	utils := []Utilization{{}, {hw.SP: 0.9}, {hw.DRAM: 0.8}}
	for i := 0; i < 10; i++ {
		utils = append(utils, randomUtil(rng))
	}
	for _, u := range utils {
		uf := flattenUtil(u)
		for _, cfg := range dev.AllConfigs() {
			want := EstimateRelativeTime(u, ref, cfg)
			got := relTimeFlat(&uf, ref, cfg)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("u=%v cfg=%v: relTimeFlat %x, want %x", u, cfg, got, want)
			}
		}
	}
}

// TestSurfaceMatchesPointwise pins every surface column to the historical
// per-point computation: Predict, EstimateRelativeTime, and the
// relEnergy/EDP derivations in their original association.
func TestSurfaceMatchesPointwise(t *testing.T) {
	dev := hw.GTXTitanX()
	m := surfaceTestModel(dev, 4)
	ref := m.Ref
	rng := stats.NewRNG(5)
	u := randomUtil(rng)

	s, err := Surfaces.Get(context.Background(), m, dev, ref, u)
	if err != nil {
		t.Fatal(err)
	}
	refPower, err := m.Predict(u, ref)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(s.RefPower) != math.Float64bits(refPower) {
		t.Fatalf("RefPower %x, want %x", s.RefPower, refPower)
	}
	if s.Len() != len(dev.AllConfigs()) {
		t.Fatalf("surface has %d points, ladder has %d", s.Len(), len(dev.AllConfigs()))
	}
	for i, cfg := range s.Configs {
		pw, err := m.Predict(u, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt := EstimateRelativeTime(u, ref, cfg)
		relEnergy := pw * rt / refPower
		relEDP := relEnergy * rt
		if math.Float64bits(s.PowerW[i]) != math.Float64bits(pw) {
			t.Fatalf("%v: PowerW %x, want %x", cfg, s.PowerW[i], pw)
		}
		if math.Float64bits(s.RelTime[i]) != math.Float64bits(rt) {
			t.Fatalf("%v: RelTime %x, want %x", cfg, s.RelTime[i], rt)
		}
		if math.Float64bits(s.RelEnergy[i]) != math.Float64bits(relEnergy) {
			t.Fatalf("%v: RelEnergy %x, want %x", cfg, s.RelEnergy[i], relEnergy)
		}
		if math.Float64bits(s.RelEDP[i]) != math.Float64bits(relEDP) {
			t.Fatalf("%v: RelEDP %x, want %x", cfg, s.RelEDP[i], relEDP)
		}
		if j, ok := s.Point(cfg); !ok || j != i {
			t.Fatalf("%v: Point index %d/%v, want %d", cfg, j, ok, i)
		}
	}
}

// TestSurfaceCacheMemoization checks the hit path returns the same
// immutable instance, and that a different model — an edited copy or an
// equal-valued twin — never shares it.
func TestSurfaceCacheMemoization(t *testing.T) {
	dev := hw.GTXTitanX()
	m := surfaceTestModel(dev, 6)
	u := Utilization{hw.SP: 0.5, hw.DRAM: 0.25}
	c := NewSurfaceCache(8)
	ctx := context.Background()

	s1, err := c.Get(ctx, m, dev, m.Ref, u)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Get(ctx, m, dev, m.Ref, u)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("warm Get returned a different surface instance")
	}

	// Equal-valued but distinct utilization map: still a hit (flattened key).
	s3, err := c.Get(ctx, m, dev, m.Ref, Utilization{hw.SP: 0.5, hw.DRAM: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s1 {
		t.Fatal("equal utilization did not hit the cache")
	}

	// An edited copy is a different model: fresh surface, fresh predictions.
	edited := *m
	edited.OmegaMem *= 1.5
	s4, err := c.Get(ctx, &edited, dev, edited.Ref, u)
	if err != nil {
		t.Fatal(err)
	}
	if s4 == s1 {
		t.Fatal("an edited copy was served the original's surface")
	}
	if math.Float64bits(s4.PowerW[0]) == math.Float64bits(s1.PowerW[0]) {
		t.Fatal("the edited copy's surface reused the original's predictions")
	}

	// A second model with equal values is still another model.
	m2 := surfaceTestModel(dev, 6)
	s5, err := c.Get(ctx, m2, dev, m2.Ref, u)
	if err != nil {
		t.Fatal(err)
	}
	if s5 == s4 || s5 == s1 {
		t.Fatal("distinct models shared a cached surface")
	}
}

// TestSurfaceCacheEviction checks the capacity bound: the cache survives
// overflow of one model's entries, and on overflow other models' entries
// are dropped first while the missing model's stay.
func TestSurfaceCacheEviction(t *testing.T) {
	dev := hw.GTXTitanX()
	old := surfaceTestModel(dev, 7)
	const capacity = 8
	c := NewSurfaceCache(capacity)
	ctx := context.Background()
	rng := stats.NewRNG(8)
	for i := 0; i < 64; i++ {
		if _, err := c.Get(ctx, old, dev, old.Ref, randomUtil(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Len(); n > capacity {
		t.Fatalf("cache grew to %d entries despite capacity %d", n, capacity)
	}

	// Fill a fresh cache half with the old model, half with its
	// replacement; the replacement's next miss evicts only the old model.
	c = NewSurfaceCache(capacity)
	live := *old
	var liveUtils []Utilization
	var liveSurfaces []*Surface
	for i := 0; i < capacity; i++ {
		m, u := old, randomUtil(rng)
		if i%2 == 1 {
			m = &live
		}
		s, err := c.Get(ctx, m, dev, m.Ref, u)
		if err != nil {
			t.Fatal(err)
		}
		if m == &live {
			liveUtils, liveSurfaces = append(liveUtils, u), append(liveSurfaces, s)
		}
	}
	if _, err := c.Get(ctx, &live, dev, live.Ref, randomUtil(rng)); err != nil {
		t.Fatal(err)
	}
	if n := c.Len(); n != capacity/2+1 {
		t.Fatalf("%d entries after overflow, want the live model's %d", n, capacity/2+1)
	}
	for i, u := range liveUtils {
		s, err := c.Get(ctx, &live, dev, live.Ref, u)
		if err != nil {
			t.Fatal(err)
		}
		if s != liveSurfaces[i] {
			t.Fatalf("the live model's surface %d was evicted", i)
		}
	}
}

// TestSurfaceCacheEditedCopy: a struct copy of a cached model with β0
// doubled is a different model to the cache. It gets its own surface,
// whose watts equal Model.Predict on the copy bit for bit.
func TestSurfaceCacheEditedCopy(t *testing.T) {
	m, err := LoadModel("../../testdata/gtx-titan-x-fit-model.json")
	if err != nil {
		t.Fatal(err)
	}
	dev := hw.GTXTitanX()
	u := Utilization{hw.SP: 0.5, hw.DRAM: 0.25}
	ctx := context.Background()
	c := NewSurfaceCache(8)
	orig, err := c.Get(ctx, m, dev, m.Ref, u)
	if err != nil {
		t.Fatal(err)
	}
	edited := *m
	edited.Beta[0] *= 2
	s, err := c.Get(ctx, &edited, dev, edited.Ref, u)
	if err != nil {
		t.Fatal(err)
	}
	if s == orig {
		t.Fatal("the edited copy was served the original's surface")
	}
	for i, cfg := range s.Configs {
		want, err := edited.Predict(u, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(s.PowerW[i]) != math.Float64bits(want) {
			t.Fatalf("ladder point %d %v: served %.2f W, the copy predicts %.2f W", i, cfg, s.PowerW[i], want)
		}
	}
}

// TestSurfaceCacheCanceledContext checks that cancellation surfaces as an
// error on both the cold and warm paths, and is never cached.
func TestSurfaceCacheCanceledContext(t *testing.T) {
	dev := hw.GTXTitanX()
	m := surfaceTestModel(dev, 9)
	u := Utilization{hw.SP: 0.4}
	c := NewSurfaceCache(8)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := c.Get(canceled, m, dev, m.Ref, u); err == nil {
		t.Fatal("cold Get with canceled context succeeded")
	}
	if c.Len() != 0 {
		t.Fatal("canceled computation was cached")
	}
	if _, err := c.Get(context.Background(), m, dev, m.Ref, u); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(canceled, m, dev, m.Ref, u); err == nil {
		t.Fatal("warm Get with canceled context succeeded")
	}
}

// TestSurfaceCachePredictAllocFree is the allocation regression test for
// a cached single-point read: after warm-up, Get plus Surface.Point performs
// zero heap allocations.
func TestSurfaceCachePredictAllocFree(t *testing.T) {
	dev := hw.GTXTitanX()
	m := surfaceTestModel(dev, 10)
	u := Utilization{hw.SP: 0.6, hw.DRAM: 0.4}
	cfg := dev.AllConfigs()[3]
	c := NewSurfaceCache(8)
	ctx := context.Background()
	if _, err := c.Get(ctx, m, dev, m.Ref, u); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		s, err := c.Get(ctx, m, dev, m.Ref, u)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Point(cfg); !ok {
			t.Fatalf("configuration %v not on the ladder", cfg)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm cached Get + Point allocates %.1f/op, want 0", allocs)
	}
}

// TestSurfaceCacheConcurrent hammers one cache from many goroutines over a
// small key set; every caller must observe the same instance per key. Run
// under -race this doubles as the data-race check for the cache map.
func TestSurfaceCacheConcurrent(t *testing.T) {
	dev := hw.GTXTitanX()
	m := surfaceTestModel(dev, 11)
	c := NewSurfaceCache(16)
	utils := []Utilization{
		{hw.SP: 0.1}, {hw.SP: 0.2}, {hw.DRAM: 0.3}, {hw.Int: 0.4, hw.DRAM: 0.5},
	}
	const workers = 8
	got := make([][]*Surface, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			got[w] = make([]*Surface, len(utils))
			for rep := 0; rep < 50; rep++ {
				for i, u := range utils {
					s, err := c.Get(context.Background(), m, dev, m.Ref, u)
					if err != nil {
						t.Error(err)
						return
					}
					if got[w][i] == nil {
						got[w][i] = s
					} else if got[w][i] != s {
						t.Errorf("worker %d key %d: surface instance changed", w, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range utils {
			if got[w][i] != got[0][i] {
				t.Fatalf("workers 0 and %d observed different surfaces for key %d", w, i)
			}
		}
	}
}
