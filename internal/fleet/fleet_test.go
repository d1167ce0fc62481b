package fleet

import (
	"context"
	"runtime"
	"testing"

	"gpupower/internal/core"
)

// withGOMAXPROCS pins the scheduler width so the pool genuinely fans out
// even on single-core CI hosts (concurrency without parallelism still
// exercises every ordering under -race).
func withGOMAXPROCS(n int, fn func()) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// modelsIdentical asserts bitwise equality of everything Estimate fits.
func modelsIdentical(t *testing.T, label string, a, b *core.Model) {
	t.Helper()
	if a.Beta != b.Beta {
		t.Fatalf("%s: Beta differs: %v vs %v", label, a.Beta, b.Beta)
	}
	for c, v := range a.OmegaCore {
		if b.OmegaCore[c] != v {
			t.Fatalf("%s: ω_%s differs: %v vs %v", label, c, v, b.OmegaCore[c])
		}
	}
	if a.OmegaMem != b.OmegaMem {
		t.Fatalf("%s: ω_mem differs: %v vs %v", label, a.OmegaMem, b.OmegaMem)
	}
	if a.Iterations != b.Iterations || a.Converged != b.Converged {
		t.Fatalf("%s: trajectory differs: (%d, %v) vs (%d, %v)",
			label, a.Iterations, a.Converged, b.Iterations, b.Converged)
	}
	for mi := range a.Voltages.VCore {
		for ci := range a.Voltages.VCore[mi] {
			if a.Voltages.VCore[mi][ci] != b.Voltages.VCore[mi][ci] ||
				a.Voltages.VMem[mi][ci] != b.Voltages.VMem[mi][ci] {
				t.Fatalf("%s: voltage table differs at (%d,%d)", label, mi, ci)
			}
		}
	}
}

// fleetSpecs is the 8-member test fleet: all Tesla K40c instances (the
// smallest ladder, so the -race run stays fast) with distinct seeds — eight
// distinct devices with distinct process variation.
func fleetSpecs() []Spec {
	specs := make([]Spec, 8)
	for i := range specs {
		specs[i] = Spec{Device: "Tesla K40c", Seed: uint64(100 + i)}
	}
	return specs
}

// memberDatasets opens the specs and measures one dataset per member, the
// path gpowerd and perfbench take.
func memberDatasets(t *testing.T, specs []Spec) []*core.Dataset {
	t.Helper()
	members, err := OpenMembers(specs)
	if err != nil {
		t.Fatal(err)
	}
	datasets, err := BuildMemberDatasets(context.Background(), members)
	if err != nil {
		t.Fatal(err)
	}
	return datasets
}

// TestFleetFitConcurrent fits ≥8 devices concurrently (GOMAXPROCS pinned to
// the fleet size so all fits are in flight at once) and pins the bitwise
// equivalence of the fleet path against individual sequential Estimate
// calls: per-worker workspace reuse and concurrent scheduling must not
// change a fitted bit. Run under -race this also proves the fits share no
// unsynchronized state.
func TestFleetFitConcurrent(t *testing.T) {
	specs := fleetSpecs()
	datasets := memberDatasets(t, specs)

	var fleetModels []*core.Model
	var err error
	withGOMAXPROCS(len(specs), func() {
		fleetModels, err = FitDatasets(context.Background(), datasets, nil)
	})
	if err != nil {
		t.Fatal(err)
	}

	for i, d := range datasets {
		individual, err := core.Estimate(context.Background(), d, nil)
		if err != nil {
			t.Fatalf("individual fit %s: %v", specs[i], err)
		}
		modelsIdentical(t, specs[i].String(), individual, fleetModels[i])
	}
}

// TestFleetWorkspaceReuse drives one FitWorkspace through heterogeneous
// dataset shapes back to back — grow, shrink, regrow — and checks each fit
// against a fresh-workspace fit. This is the reset contract FitDatasets
// relies on when a worker meets devices with different ladder sizes.
func TestFleetWorkspaceReuse(t *testing.T) {
	specs := []Spec{
		{Device: "Tesla K40c", Seed: 1},
		{Device: "GTX Titan X", Seed: 2},
		{Device: "Tesla K40c", Seed: 3},
	}
	datasets := memberDatasets(t, specs)
	fw := core.NewFitWorkspace()
	for i, d := range datasets {
		reused, err := core.EstimateWith(context.Background(), d, nil, fw)
		if err != nil {
			t.Fatalf("reused-workspace fit %s: %v", specs[i], err)
		}
		fresh, err := core.Estimate(context.Background(), d, nil)
		if err != nil {
			t.Fatal(err)
		}
		modelsIdentical(t, specs[i].String(), fresh, reused)
	}
}

// TestFitAllThroughput smoke-tests the measured entry point: every member
// fitted, the fitting phase timed.
func TestFitAllThroughput(t *testing.T) {
	specs := Registry(4, 50)
	if specs[0].Device == specs[1].Device {
		t.Fatalf("Registry is not heterogeneous: %v", specs[:2])
	}
	res, err := FitAll(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fits) != len(specs) {
		t.Fatalf("fitted %d of %d members", len(res.Fits), len(specs))
	}
	for _, f := range res.Fits {
		if f.Model == nil {
			t.Fatalf("member %s has no model", f.Spec)
		}
		if f.Model.DeviceName != f.Spec.Device {
			t.Fatalf("member %s fitted model for %q", f.Spec, f.Model.DeviceName)
		}
	}
	if res.Wall <= 0 {
		t.Fatalf("non-positive fitting wall time %v", res.Wall)
	}
}
