package gpupower_test

import (
	"math"
	"path/filepath"
	"sync"
	"testing"

	"gpupower"
)

// The public-API tests run on the Tesla K40c (4 configurations) so a full
// fit stays fast; the cross-device behaviour is covered by the experiments
// package.

var (
	fitOnce  sync.Once
	fitGPU   *gpupower.GPU
	fitModel *gpupower.Model
	fitErr   error
)

// fitted fits one shared model for the API tests.
func fitted(t *testing.T) (*gpupower.GPU, *gpupower.Model) {
	t.Helper()
	fitOnce.Do(func() {
		fitGPU, fitErr = gpupower.Open(gpupower.TeslaK40c, 42)
		if fitErr != nil {
			return
		}
		fitModel, fitErr = fitGPU.FitPowerModel()
	})
	if fitErr != nil {
		t.Fatal(fitErr)
	}
	return fitGPU, fitModel
}

func TestOpenUnknownDevice(t *testing.T) {
	if _, err := gpupower.Open("GTX 480", 1); err == nil {
		t.Fatal("unknown device accepted")
	}
}

func TestDeviceNames(t *testing.T) {
	names := gpupower.DeviceNames()
	if len(names) != 3 {
		t.Fatalf("device count = %d", len(names))
	}
	for _, n := range names {
		gpu, err := gpupower.Open(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		if gpu.Name() != n {
			t.Fatalf("Name = %q, want %q", gpu.Name(), n)
		}
		if gpu.TDP() <= 0 {
			t.Fatal("non-positive TDP")
		}
		if len(gpu.Configs()) == 0 {
			t.Fatal("no configurations")
		}
	}
}

func TestFitPredictMeasureCycle(t *testing.T) {
	gpu, model := fitted(t)
	if err := model.Validate(); err != nil {
		t.Fatal(err)
	}
	if model.DeviceName != gpupower.TeslaK40c {
		t.Fatalf("model device %q", model.DeviceName)
	}

	wl, err := gpupower.WorkloadByName("BLCKSC")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := gpu.ProfileForModel(wl.App, model)
	if err != nil {
		t.Fatal(err)
	}
	if prof.RefPower <= 0 {
		t.Fatal("non-positive reference power")
	}
	if err := prof.Utilization.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range gpu.Configs() {
		pred, err := model.Predict(prof.Utilization, cfg)
		if err != nil {
			t.Fatal(err)
		}
		meas, err := gpu.MeasurePower(wl.App, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(pred-meas) / meas; rel > 0.35 {
			t.Errorf("%v: predicted %.1f W vs measured %.1f W (%.0f%%)", cfg, pred, meas, 100*rel)
		}
	}
}

func TestModelSaveLoadThroughFacade(t *testing.T) {
	_, model := fitted(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := model.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := gpupower.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.DeviceName != model.DeviceName || back.OmegaMem != model.OmegaMem {
		t.Fatal("round trip lost data")
	}
}

func TestMeasureIdlePower(t *testing.T) {
	gpu, _ := fitted(t)
	idle, err := gpu.MeasureIdlePower(gpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if idle <= 0 || idle > 120 {
		t.Fatalf("idle = %g W", idle)
	}
}

func TestWorkloadsCatalog(t *testing.T) {
	wls := gpupower.Workloads()
	if len(wls) != 26 {
		t.Fatalf("workload count = %d, want 26", len(wls))
	}
	if _, err := gpupower.WorkloadByName("NOPE"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	for _, size := range []int{64, 512, 4096} {
		if _, err := gpupower.MatrixMulCUBLAS(size); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := gpupower.MatrixMulCUBLAS(1000); err == nil {
		t.Fatal("bad size accepted")
	}
	if got := len(gpupower.Microbenchmarks()); got != 83 {
		t.Fatalf("microbenchmark count = %d, want 83", got)
	}
}

func TestDefaultEstimatorOptions(t *testing.T) {
	opts := gpupower.DefaultEstimatorOptions()
	if opts.MaxIterations != 50 {
		t.Fatalf("MaxIterations = %d, want 50 (paper)", opts.MaxIterations)
	}
}

func TestFitWithAblationOptions(t *testing.T) {
	gpu, _ := fitted(t)
	opts := gpupower.DefaultEstimatorOptions()
	opts.DisableVoltage = true
	m, err := gpu.FitPowerModelWithOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Iterations != 1 {
		t.Fatalf("ablation iterations = %d, want 1", m.Iterations)
	}
}
