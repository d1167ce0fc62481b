package core

import (
	"context"
	"math"
	"testing"

	"gpupower/internal/hw"
	"gpupower/internal/kernels"
	"gpupower/internal/microbench"
	"gpupower/internal/profiler"
	"gpupower/internal/sim"
)

func k40Profiler(t *testing.T) *profiler.Profiler {
	t.Helper()
	// Tesla K40c: smallest configuration space, fast tests.
	b, err := sim.Open("Tesla K40c", 42)
	if err != nil {
		t.Fatal(err)
	}
	p, err := profiler.New(b)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCalibrateL2BytesPerCycle(t *testing.T) {
	p := k40Profiler(t)
	ref := p.HW().DefaultConfig()
	got, err := CalibrateL2BytesPerCycle(context.Background(), p, ref)
	if err != nil {
		t.Fatal(err)
	}
	// The device's true figure is 512 B/cycle; the calibration benches reach
	// ~88% of peak and carry Kepler event error, so accept a generous band —
	// systematic calibration bias is absorbed by ω_L2 during fitting.
	true512 := p.HW().L2BytesPerCycle
	if got < 0.5*true512 || got > 1.3*true512 {
		t.Fatalf("calibrated L2 = %.0f B/cycle, true %.0f", got, true512)
	}
}

func TestBuildDatasetShape(t *testing.T) {
	p := k40Profiler(t)
	dev := p.HW()
	d, err := BuildDataset(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Benchmarks) != microbench.SuiteSize {
		t.Fatalf("benchmark rows = %d, want %d", len(d.Benchmarks), microbench.SuiteSize)
	}
	if len(d.Configs) != dev.NumConfigs() {
		t.Fatalf("config columns = %d", len(d.Configs))
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Power values must lie in a physical band.
	for bi, row := range d.Power {
		for fi, pw := range row {
			if pw <= 0 || pw > dev.TDP {
				t.Fatalf("power[%d][%d] = %g W out of (0, TDP]", bi, fi, pw)
			}
		}
	}
	// The idle benchmark should be the cheapest at the reference config.
	refIdx, err := d.configIndex(dev.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	idleIdx := -1
	for bi, b := range d.Benchmarks {
		if b.Name == "ub_idle" {
			idleIdx = bi
		}
	}
	if idleIdx < 0 {
		t.Fatal("ub_idle missing from dataset")
	}
	for bi := range d.Benchmarks {
		if d.Power[bi][refIdx] < d.Power[idleIdx][refIdx]-2 {
			t.Fatalf("benchmark %s cheaper than idle", d.Benchmarks[bi].Name)
		}
	}
}

func TestAppUtilizationWeighting(t *testing.T) {
	p := k40Profiler(t)
	dev := p.HW()
	ref := dev.DefaultConfig()
	l2bpc, err := CalibrateL2BytesPerCycle(context.Background(), p, ref)
	if err != nil {
		t.Fatal(err)
	}

	mk := func(name string, sp float64) *kernels.KernelSpec {
		return &kernels.KernelSpec{
			Name:            name,
			WarpInstrs:      map[hw.Component]float64{hw.SP: sp},
			L2ReadBytes:     1e8,
			DRAMReadBytes:   1e8,
			IssueEfficiency: 0.9,
		}
	}
	fast := mk("fast", 1e9)
	slow := mk("slow", 4e10) // dominates the runtime

	prof, err := p.ProfileApp(context.Background(), &kernels.App{Name: "mix", Kernels: []*kernels.KernelSpec{fast, slow}}, ref)
	if err != nil {
		t.Fatal(err)
	}
	u, err := AppUtilization(dev, prof, l2bpc)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	// The app utilization must be dominated by the slow kernel's profile.
	slowProf, err := p.ProfileApp(context.Background(), kernels.SingleKernelApp(slow), ref)
	if err != nil {
		t.Fatal(err)
	}
	uSlow, err := AppUtilization(dev, slowProf, l2bpc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u[hw.SP]-uSlow[hw.SP]) > 0.1 {
		t.Fatalf("weighted U(SP) = %.2f, want near slow kernel's %.2f", u[hw.SP], uSlow[hw.SP])
	}
}

func TestAppUtilizationEmptyProfile(t *testing.T) {
	dev := hw.TeslaK40c()
	if _, err := AppUtilization(dev, &profiler.AppProfile{App: &kernels.App{Name: "x"}}, 512); err == nil {
		t.Fatal("empty profile accepted")
	}
}

func TestDatasetValidate(t *testing.T) {
	truth := defaultSyntheticTruth()
	d := syntheticDataset(truth, 5, 0, 7)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(d *Dataset){
		"no benchmarks":  func(d *Dataset) { d.Benchmarks = nil; d.Power = nil },
		"row mismatch":   func(d *Dataset) { d.Power = d.Power[:2] },
		"ragged row":     func(d *Dataset) { d.Power[0] = d.Power[0][:3] },
		"negative power": func(d *Dataset) { d.Power[1][2] = -5 },
		"NaN power":      func(d *Dataset) { d.Power[1][2] = math.NaN() },
		"infinite power": func(d *Dataset) { d.Power[1][2] = math.Inf(1) },
		"zero L2":        func(d *Dataset) { d.L2BytesPerCycle = 0 },
		"NaN L2":         func(d *Dataset) { d.L2BytesPerCycle = math.NaN() },
		"infinite L2":    func(d *Dataset) { d.L2BytesPerCycle = math.Inf(1) },
		"bad utilization": func(d *Dataset) {
			d.Benchmarks[0].Util = Utilization{hw.SP: 2}
		},
	}
	for name, mod := range cases {
		dd := syntheticDataset(truth, 5, 0, 7)
		mod(dd)
		if err := dd.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestEndToEndFitOnSimulatedK40c is the package's integration test: build
// the dataset on the simulated die, fit, and check the model predicts a
// held-out application within the paper's Kepler error band.
func TestEndToEndFitOnSimulatedK40c(t *testing.T) {
	p := k40Profiler(t)
	dev := p.HW()
	d, err := BuildDataset(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Estimate(context.Background(), d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Converged {
		t.Errorf("estimator did not converge in %d iterations", m.Iterations)
	}
	if m.Iterations >= 50 {
		t.Errorf("estimator used %d iterations, paper reports < 50", m.Iterations)
	}

	app := &kernels.KernelSpec{
		Name:            "heldout",
		WarpInstrs:      map[hw.Component]float64{hw.SP: 2e10, hw.Int: 4e9},
		L2ReadBytes:     5e9,
		DRAMReadBytes:   5e9,
		FixedCycles:     1e5,
		IssueEfficiency: 0.9,
	}
	prof, err := p.ProfileApp(context.Background(), kernels.SingleKernelApp(app), dev.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	u, err := AppUtilization(dev, prof, m.L2BytesPerCycle)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range dev.AllConfigs() {
		pred, err := m.Predict(u, cfg)
		if err != nil {
			t.Fatal(err)
		}
		meas, _, err := p.MeasureKernelPower(context.Background(), app, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(pred-meas) / meas; rel > 0.35 {
			t.Errorf("%v: predicted %.1f vs measured %.1f (%.0f%%)", cfg, pred, meas, 100*rel)
		}
	}
}
