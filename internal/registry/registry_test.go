package registry

import (
	"context"
	"math"
	"sync"
	"testing"

	"gpupower/internal/core"
	"gpupower/internal/fleet"
	"gpupower/internal/hw"
)

// testModel builds a synthetic fitted model for dev. beta0 perturbs the
// core static coefficient, so two models built with different beta0 are
// distinguishable in every prediction.
func testModel(t *testing.T, dev *hw.Device, beta0 float64) *core.Model {
	t.Helper()
	m := &core.Model{
		DeviceName: dev.Name,
		Ref:        dev.DefaultConfig(),
		Beta:       [4]float64{beta0, 0.02, 10, 0.002},
		OmegaCore: map[hw.Component]float64{
			hw.Int: 0.011, hw.SP: 0.013, hw.DP: 0.017,
			hw.SF: 0.007, hw.Shared: 0.005, hw.L2: 0.009,
		},
		OmegaMem:        0.004,
		Voltages:        core.NewVoltageTable(dev.CoreFreqs, dev.MemFreqs),
		L2BytesPerCycle: dev.L2BytesPerCycle,
		Iterations:      3,
		Converged:       true,
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("synthetic model invalid: %v", err)
	}
	return m
}

func TestNewEntryValidation(t *testing.T) {
	dev := hw.TeslaK40c()
	m := testModel(t, dev, 40)
	if _, err := NewEntry("", dev, nil, nil, m, FitMeta{}); err == nil {
		t.Fatal("empty name must be rejected")
	}
	if _, err := NewEntry("x", nil, nil, nil, m, FitMeta{}); err == nil {
		t.Fatal("nil device must be rejected")
	}
	if _, err := NewEntry("x", dev, nil, nil, nil, FitMeta{}); err == nil {
		t.Fatal("nil model must be rejected")
	}
	other := hw.GTXTitanX()
	if _, err := NewEntry("x", other, nil, nil, m, FitMeta{}); err == nil {
		t.Fatal("device/model mismatch must be rejected")
	}
	e, err := NewEntry("k40", dev, nil, nil, m, FitMeta{Source: "test", Generation: 99})
	if err != nil {
		t.Fatal(err)
	}
	got, meta := e.Snapshot()
	if got != m {
		t.Fatal("snapshot must return the installed model")
	}
	if meta.Generation != 1 {
		t.Fatalf("first install numbered %d, want 1", meta.Generation)
	}
	if meta.Source != "test" {
		t.Fatalf("source %q lost", meta.Source)
	}
}

// TestSwapValidatesAndKeepsSurfaces checks Swap's guards, and that the
// outgoing model's memoized surfaces stay warm for the readers still
// holding it: a swap is a registry event, not an edit of the old model.
func TestSwapValidatesAndKeepsSurfaces(t *testing.T) {
	ctx := context.Background()
	dev := hw.TeslaK40c()
	a := testModel(t, dev, 40)
	b := testModel(t, dev, 55)
	e, err := NewEntry("k40", dev, nil, nil, a, FitMeta{})
	if err != nil {
		t.Fatal(err)
	}
	u := core.Utilization{hw.SP: 0.3, hw.DRAM: 0.7}
	before, err := core.Surfaces.Get(ctx, a, dev, a.Ref, u)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Swap(nil, FitMeta{}); err == nil {
		t.Fatal("nil model swap must be rejected")
	}
	wrong := testModel(t, hw.GTXTitanX(), 40)
	if _, err := e.Swap(wrong, FitMeta{}); err == nil {
		t.Fatal("mismatched-device swap must be rejected")
	}

	old, err := e.Swap(b, FitMeta{Source: "refit"})
	if err != nil {
		t.Fatal(err)
	}
	if old != a {
		t.Fatal("swap must return the previous model")
	}
	m, meta := e.Snapshot()
	if m != b || meta.Source != "refit" {
		t.Fatal("snapshot must be the new (model, meta) pair")
	}
	h0, m0 := core.Surfaces.Stats()
	after, err := core.Surfaces.Get(ctx, old, dev, old.Ref, u)
	if err != nil {
		t.Fatal(err)
	}
	h1, m1 := core.Surfaces.Stats()
	if after != before || h1 != h0+1 || m1 != m0 {
		t.Fatalf("outgoing model's surface after swap: same instance %v, %d hits, %d misses; want a hit",
			after == before, h1-h0, m1-m0)
	}
}

// TestSwapNumbersInstalls checks that the entry numbers its installs: 1
// for the first, one more per swap, whatever the caller's metadata says.
// Installing the model already served is a swap like any other.
func TestSwapNumbersInstalls(t *testing.T) {
	dev := hw.TeslaK40c()
	a, b := testModel(t, dev, 40), testModel(t, dev, 55)
	e, err := NewEntry("k40", dev, nil, nil, a, FitMeta{})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range []*core.Model{b, b, a, a} {
		if _, err := e.Swap(m, FitMeta{Generation: 1}); err != nil {
			t.Fatal(err)
		}
		if _, meta := e.Snapshot(); meta.Generation != uint64(i+2) {
			t.Fatalf("swap %d numbered its install %d, want %d", i+1, meta.Generation, i+2)
		}
	}

	// Concurrent swaps lose no install.
	const swappers, swaps = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < swappers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < swaps; i++ {
				if _, err := e.Swap(b, FitMeta{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if _, meta := e.Snapshot(); meta.Generation != 5+swappers*swaps {
		t.Fatalf("after %d concurrent swaps the install is numbered %d, want %d", swappers*swaps, meta.Generation, 5+swappers*swaps)
	}
}

func TestRegistryAddLookupOrder(t *testing.T) {
	dev := hw.TeslaK40c()
	r := New()
	if err := r.Add(nil); err == nil {
		t.Fatal("nil entry must be rejected")
	}
	names := []string{"c", "a", "b"}
	for _, n := range names {
		e, err := NewEntry(n, dev, nil, nil, testModel(t, dev, 40), FitMeta{})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	dup, _ := NewEntry("a", dev, nil, nil, testModel(t, dev, 41), FitMeta{})
	if err := r.Add(dup); err == nil {
		t.Fatal("duplicate name must be rejected")
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	got := r.Names()
	for i, n := range names {
		if got[i] != n {
			t.Fatalf("Names() = %v, want insertion order %v", got, names)
		}
		e, ok := r.Lookup(n)
		if !ok || e.Name() != n {
			t.Fatalf("Lookup(%q) failed", n)
		}
		if r.Entries()[i] != e {
			t.Fatal("Entries() must mirror Names() order")
		}
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Fatal("unknown name must miss")
	}
}

func TestRefitSwapsNewModel(t *testing.T) {
	ctx := context.Background()
	member, err := fleet.OpenMember(fleet.Spec{Device: "Tesla K40c", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	d, err := member.BuildDataset(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m0, err := core.Estimate(ctx, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEntry(member.Spec.String(), member.Device, member.Backend, member.Profiler, m0, FitMeta{Source: "simulator"})
	if err != nil {
		t.Fatal(err)
	}
	_, meta0 := e.Snapshot()
	m1, err := e.Refit(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m1 == m0 {
		t.Fatal("refit must install a fresh model instance")
	}
	cur, meta := e.Snapshot()
	if cur != m1 {
		t.Fatal("refit must swap the new model in")
	}
	if meta.Generation != meta0.Generation+1 {
		t.Fatalf("refit numbered its install %d after %d", meta.Generation, meta0.Generation)
	}
	if meta.Source != "simulator" {
		t.Fatalf("refit must preserve the source label, got %q", meta.Source)
	}
	if meta.FitWall <= 0 {
		t.Fatal("refit must record the fit wall clock")
	}

	// Model-only entries cannot refit.
	bare, err := NewEntry("bare", member.Device, nil, nil, testModel(t, member.Device, 40), FitMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bare.Refit(ctx, nil); err == nil {
		t.Fatal("model-only entry refit must error")
	}
}

// TestSwapUnderConcurrentReaders is the registry's core serving guarantee
// under the race detector: readers that snapshot the model once per batch
// see batches that are bitwise-identical to the old fit or to the new fit,
// never a mix, while a writer swaps the entry back and forth.
func TestSwapUnderConcurrentReaders(t *testing.T) {
	dev := hw.TeslaK40c()
	a := testModel(t, dev, 40)
	b := testModel(t, dev, 55)
	configs := dev.AllConfigs()
	u := core.Utilization{hw.SP: 0.8, hw.Int: 0.25, hw.L2: 0.4, hw.DRAM: 0.6}

	expect := func(m *core.Model) []float64 {
		out := make([]float64, len(configs))
		if err := m.PredictAll(u, configs, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	expectedA, expectedB := expect(a), expect(b)
	for i := range expectedA {
		if math.Float64bits(expectedA[i]) == math.Float64bits(expectedB[i]) {
			t.Fatalf("config %d: models A and B predict identically; perturbation too weak", i)
		}
	}

	e, err := NewEntry("k40", dev, nil, nil, a, FitMeta{})
	if err != nil {
		t.Fatal(err)
	}

	const (
		readers        = 4
		swaps          = 300
		batchesPerSwap = 2
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]float64, len(configs))
			for {
				select {
				case <-stop:
					return
				default:
				}
				// The serving contract: one snapshot per batch.
				m, _ := e.Snapshot()
				if err := m.PredictAll(u, configs, batch); err != nil {
					errc <- err
					return
				}
				matchA, matchB := true, true
				for i := range batch {
					bits := math.Float64bits(batch[i])
					if bits != math.Float64bits(expectedA[i]) {
						matchA = false
					}
					if bits != math.Float64bits(expectedB[i]) {
						matchB = false
					}
				}
				if !matchA && !matchB {
					errc <- errMixedBatch(batch, expectedA, expectedB)
					return
				}
			}
		}()
	}

	cur, next := a, b
	for i := 0; i < swaps; i++ {
		if _, err := e.Swap(next, FitMeta{}); err != nil {
			t.Fatal(err)
		}
		cur, next = next, cur
		// Let readers run a couple of batches between swaps.
		for j := 0; j < batchesPerSwap; j++ {
			m, _ := e.Snapshot()
			scratch := make([]float64, len(configs))
			if err := m.PredictAll(u, configs, scratch); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	_ = cur
}

// errMixedBatch formats the mixed-generation failure.
type mixedBatchError struct{ got, a, b []float64 }

func errMixedBatch(got, a, b []float64) error {
	g := make([]float64, len(got))
	copy(g, got)
	return &mixedBatchError{got: g, a: a, b: b}
}

func (e *mixedBatchError) Error() string {
	for i := range e.got {
		gb := math.Float64bits(e.got[i])
		if gb != math.Float64bits(e.a[i]) && gb != math.Float64bits(e.b[i]) {
			return "batch matches neither generation (corrupt read)"
		}
	}
	return "batch mixes generations: some points from the old model, some from the new"
}
