package gpupower_test

import (
	"math"
	"testing"

	"gpupower"
)

func TestEstimateRelativeTimeProperties(t *testing.T) {
	gpu, _ := fitted(t)
	ref := gpu.DefaultConfig()

	// At the reference configuration the ratio is exactly 1.
	u := gpupower.Utilization{gpupower.SP: 0.8, gpupower.DRAM: 0.3}
	if rt := gpupower.EstimateRelativeTime(u, ref, ref); rt != 1 {
		t.Fatalf("relative time at ref = %g, want 1", rt)
	}

	// Lowering the bound resource's clock slows the app.
	for _, cfg := range gpu.Configs() {
		rt := gpupower.EstimateRelativeTime(u, ref, cfg)
		if rt <= 0 || math.IsNaN(rt) {
			t.Fatalf("relative time %g at %v", rt, cfg)
		}
		if cfg.CoreMHz <= ref.CoreMHz && cfg.MemMHz <= ref.MemMHz && rt < 1-1e-9 {
			t.Fatalf("slower clocks gave a speedup (%g) at %v", rt, cfg)
		}
	}

	// A compute-bound app is insensitive to the memory clock.
	cb := gpupower.Utilization{gpupower.SP: 0.9, gpupower.DRAM: 0.05}
	low := ref
	low.MemMHz = gpu.Device().MemFreqs[0]
	if rt := gpupower.EstimateRelativeTime(cb, ref, low); rt > 1.05 {
		t.Fatalf("compute-bound app slowed %.2fx by the memory clock", rt)
	}

	// An idle profile is frequency-insensitive.
	if rt := gpupower.EstimateRelativeTime(gpupower.Utilization{}, ref, low); rt != 1 {
		t.Fatalf("idle profile relative time = %g", rt)
	}
}

func TestEvaluateOperatingPoints(t *testing.T) {
	gpu, model := fitted(t)
	wl, err := gpupower.WorkloadByName("CUTCP")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := gpu.ProfileForModel(wl.App, model)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := gpupower.EvaluateOperatingPoints(model, gpu.Device(), prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(gpu.Configs()) {
		t.Fatalf("point count = %d", len(pts))
	}
	for _, pt := range pts {
		if pt.PowerW <= 0 || pt.RelTime <= 0 || pt.RelEnergy <= 0 || pt.RelEDP <= 0 {
			t.Fatalf("non-positive operating point %+v", pt)
		}
		if math.Abs(pt.RelEDP-pt.RelEnergy*pt.RelTime) > 1e-9 {
			t.Fatalf("EDP inconsistent at %v", pt.Config)
		}
		// The reference configuration's energy ratio is exactly 1.
		if pt.Config == prof.Ref {
			if math.Abs(pt.RelEnergy-1) > 1e-9 {
				t.Fatalf("reference energy ratio = %g", pt.RelEnergy)
			}
		}
	}
}

func TestFindBestConfig(t *testing.T) {
	gpu, model := fitted(t)
	wl, err := gpupower.WorkloadByName("LBM") // memory-bound: core scaling saves energy
	if err != nil {
		t.Fatal(err)
	}
	prof, err := gpu.ProfileForModel(wl.App, model)
	if err != nil {
		t.Fatal(err)
	}

	best, err := gpupower.FindBestConfig(model, gpu.Device(), prof, gpupower.MinEnergy)
	if err != nil {
		t.Fatal(err)
	}
	if best.PowerW > gpu.TDP() {
		t.Fatal("best config violates TDP")
	}
	// It must not be worse than running at the reference.
	if best.RelEnergy > 1+1e-9 {
		t.Fatalf("min-energy config has energy ratio %g > 1", best.RelEnergy)
	}
	// For a memory-bound app, the energy-optimal core clock is below the
	// reference (the paper's DVFS-management use case).
	if best.Config.CoreMHz >= prof.Ref.CoreMHz {
		t.Errorf("memory-bound app: expected a lower energy-optimal core clock, got %v", best.Config)
	}

	minPower, err := gpupower.FindBestConfig(model, gpu.Device(), prof, gpupower.MinPowerUnderTDP)
	if err != nil {
		t.Fatal(err)
	}
	// Minimum power is at the lowest clocks.
	dev := gpu.Device()
	if minPower.Config.CoreMHz != dev.CoreFreqs[0] || minPower.Config.MemMHz != dev.MemFreqs[0] {
		t.Errorf("min-power config = %v, want the ladder floor", minPower.Config)
	}

	edp, err := gpupower.FindBestConfig(model, gpu.Device(), prof, gpupower.MinEDP)
	if err != nil {
		t.Fatal(err)
	}
	// EDP penalizes slowdown, so its optimum cannot be slower than the
	// min-energy optimum's relative time... it can, but its EDP must be best.
	if edp.RelEDP > best.RelEDP+1e-9 {
		t.Errorf("min-EDP config (%g) beaten by min-energy config (%g)", edp.RelEDP, best.RelEDP)
	}
}

// TestObjectiveString moved to string_test.go (exhaustive, including the
// unknown(N) default).

// TestZeroReferencePowerError: relative energy divides by the reference
// power, so a model that predicts 0 W there (all β and ω zero) has no
// operating points, and both DVFS entry points say so.
func TestZeroReferencePowerError(t *testing.T) {
	gpu, model := fitted(t)
	wl, err := gpupower.WorkloadByName("LBM")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := gpu.ProfileForModel(wl.App, model)
	if err != nil {
		t.Fatal(err)
	}
	zero := *model
	zero.Beta = [4]float64{}
	zero.OmegaCore = map[gpupower.Component]float64{
		gpupower.Int: 0, gpupower.SP: 0, gpupower.DP: 0,
		gpupower.SF: 0, gpupower.Shared: 0, gpupower.L2: 0,
	}
	zero.OmegaMem = 0
	const want = "gpupower: non-positive reference power prediction 0"
	if _, err := gpupower.EvaluateOperatingPoints(&zero, gpu.Device(), prof); err == nil || err.Error() != want {
		t.Fatalf("EvaluateOperatingPoints error %v, want %q", err, want)
	}
	if _, err := gpupower.FindBestConfig(&zero, gpu.Device(), prof, gpupower.MinEnergy); err == nil || err.Error() != want {
		t.Fatalf("FindBestConfig error %v, want %q", err, want)
	}
}
