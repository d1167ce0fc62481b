package sim

import (
	"errors"
	"math"
	"testing"
	"time"

	"gpupower/internal/backend"
	"gpupower/internal/hw"
	"gpupower/internal/kernels"
	"gpupower/internal/microbench"
	"gpupower/internal/silicon"
	"gpupower/internal/suites"
)

func newSim(t *testing.T, name string) *Device {
	t.Helper()
	dev, err := hw.DeviceByName(name)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(dev, 42)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func lightKernel() *kernels.KernelSpec {
	return &kernels.KernelSpec{
		Name:            "light",
		WarpInstrs:      map[hw.Component]float64{hw.SP: 5e8, hw.Int: 1e8},
		L2ReadBytes:     5e7,
		DRAMReadBytes:   5e7,
		FixedCycles:     1e5,
		IssueEfficiency: 0.9,
	}
}

// hotKernel exceeds TDP at the top clocks of the GTX Titan X.
func hotKernel() *kernels.KernelSpec {
	return &kernels.KernelSpec{
		Name: "hot",
		WarpInstrs: map[hw.Component]float64{
			hw.SP: 2e10, hw.Int: 1.6e10, hw.SF: 4e9,
		},
		SharedLoadBytes: 5e9, SharedStoreBytes: 5e9,
		L2ReadBytes: 8e9, L2WriteBytes: 4e9,
		DRAMReadBytes: 8e9, DRAMWriteBytes: 4e9,
		IssueEfficiency: 0.95,
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open("GTX 480", 1); err == nil {
		t.Fatal("unknown device accepted")
	}
	if _, err := New(nil, 1); err == nil {
		t.Fatal("nil device accepted")
	}
}

// TestDeviceAndEscapeHatches checks the hardware description and the
// validation-only ground-truth methods that sit beside backend.Backend.
func TestDeviceAndEscapeHatches(t *testing.T) {
	s, err := Open("GTX Titan X", 42)
	if err != nil {
		t.Fatal(err)
	}
	if s.Device().Name != "GTX Titan X" {
		t.Fatalf("device = %q", s.Device().Name)
	}
	run, err := s.Execute(lightKernel())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.TrueBreakdown(run.Exec).Total(); math.Abs(got-run.TruePower) > 1e-9*run.TruePower {
		t.Fatalf("true breakdown totals %g W, run's true power %g W", got, run.TruePower)
	}
	if v := s.ThirdPartyVoltageReadout(s.Device().DefaultConfig().CoreMHz); v <= 0 {
		t.Fatalf("voltage readout %g", v)
	}
}

func TestSetClocksValidation(t *testing.T) {
	s := newSim(t, "GTX Titan X")
	if err := s.SetClocks(hw.Config{CoreMHz: 975, MemMHz: 3505}); err != nil {
		t.Fatal(err)
	}
	if got := s.Clocks(); got.CoreMHz != 975 || got.MemMHz != 3505 {
		t.Fatalf("Clocks = %v", got)
	}
	if err := s.SetClocks(hw.Config{CoreMHz: 975, MemMHz: 1234}); !errors.Is(err, backend.ErrUnsupportedClock) {
		t.Fatalf("bad memory clock: err = %v, want wrapped ErrUnsupportedClock", err)
	}
	if err := s.SetClocks(hw.Config{CoreMHz: 1000, MemMHz: 3505}); !errors.Is(err, backend.ErrUnsupportedClock) {
		t.Fatalf("bad core clock: err = %v, want wrapped ErrUnsupportedClock", err)
	}
}

func TestClockControl(t *testing.T) {
	s, err := Open("GTX Titan X", 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hw.Config{CoreMHz: 595, MemMHz: 810}
	if err := s.SetClocks(cfg); err != nil {
		t.Fatal(err)
	}
	if got := s.Clocks(); got != cfg {
		t.Fatalf("Clocks() = %v, want %v", got, cfg)
	}
	err = s.SetClocks(hw.Config{CoreMHz: 123, MemMHz: 810})
	if !errors.Is(err, backend.ErrUnsupportedClock) {
		t.Fatalf("off-ladder: err = %v, want wrapped ErrUnsupportedClock", err)
	}
	if got := s.Clocks(); got != cfg {
		t.Fatalf("rejected request changed the clocks to %v", got)
	}
}

// TestMeasurementSurface drives every backend.Backend method once.
func TestMeasurementSurface(t *testing.T) {
	var b backend.Backend = newSim(t, "GTX Titan X")
	k := lightKernel()
	dflt := b.Device().DefaultConfig()
	if err := b.SetClocks(dflt); err != nil {
		t.Fatal(err)
	}

	w, info, err := b.SampledKernelPower(k, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if w <= 0 || w > b.Device().TDP {
		t.Fatalf("power %g W outside (0, TDP]", w)
	}
	if info.Requested != dflt || info.Seconds <= 0 {
		t.Fatalf("run summary %+v implausible", info)
	}

	idle, err := b.SampledIdlePower(50 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if idle <= 0 || idle >= w {
		t.Fatalf("idle %g W vs loaded %g W", idle, w)
	}

	metrics, info, err := b.CollectMetrics(k)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range backend.AllMetrics {
		if _, ok := metrics[m]; !ok {
			t.Fatalf("metric %s missing", m)
		}
	}
	if info.Requested != dflt || info.Seconds <= 0 {
		t.Fatalf("collection run summary %+v implausible", info)
	}

	e, info, err := b.RunKernel(k)
	if err != nil {
		t.Fatal(err)
	}
	if e <= 0 || info.Seconds <= 0 {
		t.Fatalf("energy %g J over %g s", e, info.Seconds)
	}
	if p := e / info.Seconds; p <= 0 || p > b.Device().TDP {
		t.Fatalf("implied power %g W outside (0, TDP]", p)
	}
}

func TestExecuteAtRequestedClocks(t *testing.T) {
	s := newSim(t, "GTX Titan X")
	if err := s.SetClocks(hw.Config{CoreMHz: 595, MemMHz: 810}); err != nil {
		t.Fatal(err)
	}
	run, err := s.Execute(lightKernel())
	if err != nil {
		t.Fatal(err)
	}
	if run.Requested != run.Effective {
		t.Fatalf("light kernel throttled: %v -> %v", run.Requested, run.Effective)
	}
	if run.TruePower <= 0 || run.TruePower > s.Device().TDP {
		t.Fatalf("power %g out of range", run.TruePower)
	}
}

// shortHotKernel is hotKernel with a tenth of the work: the same power, so
// the same throttling, in about 21 ms on the GTX Titan X — less than one
// 100 ms sensor window.
func shortHotKernel() *kernels.KernelSpec {
	return &kernels.KernelSpec{
		Name: "short-hot",
		WarpInstrs: map[hw.Component]float64{
			hw.SP: 2e9, hw.Int: 1.6e9, hw.SF: 4e8,
		},
		SharedLoadBytes: 5e8, SharedStoreBytes: 5e8,
		L2ReadBytes: 8e8, L2WriteBytes: 4e8,
		DRAMReadBytes: 8e8, DRAMWriteBytes: 4e8,
		IssueEfficiency: 0.95,
	}
}

func TestTDPGovernorCapsCoreClock(t *testing.T) {
	s := newSim(t, "GTX Titan X")
	if err := s.SetClocks(hw.Config{CoreMHz: 1164, MemMHz: 4005}); err != nil {
		t.Fatal(err)
	}
	run, err := s.Execute(hotKernel())
	if err != nil {
		t.Fatal(err)
	}
	if run.Effective.CoreMHz >= run.Requested.CoreMHz {
		t.Fatalf("hot kernel not throttled (requested %v, effective %v, power %.0f W)",
			run.Requested, run.Effective, run.TruePower)
	}
	if run.TruePower > s.Device().TDP {
		t.Fatalf("post-throttle power %.0f W exceeds TDP", run.TruePower)
	}
	// The governor must pick the closest feasible level: one step up would
	// violate TDP again.
	ladder := s.Device().CoreFreqs
	for i, f := range ladder {
		if f == run.Effective.CoreMHz && i+1 < len(ladder) && ladder[i+1] < run.Requested.CoreMHz {
			if err := s.SetClocks(hw.Config{CoreMHz: ladder[i+1], MemMHz: 4005}); err != nil {
				t.Fatal(err)
			}
			up, err := s.Execute(hotKernel())
			if err != nil {
				t.Fatal(err)
			}
			if up.Effective.CoreMHz > run.Effective.CoreMHz {
				t.Fatal("governor did not pick the closest feasible level")
			}
		}
	}
}

// silicon.Truth.Launch is what the sampling loop runs instead of Simulate
// and Power: its time and power must be theirs to the bit, for every
// microbenchmark and validation kernel at every configuration of every
// catalog device.
func TestLaunchMatchesSimulate(t *testing.T) {
	var ks []*kernels.KernelSpec
	for _, b := range microbench.Suite() {
		ks = append(ks, b.Kernel)
	}
	for _, app := range suites.ValidationSet() {
		ks = append(ks, app.App.Kernels...)
	}
	for _, dev := range hw.AllDevices() {
		tr := silicon.MustTruthFor(dev)
		for _, cfg := range dev.AllConfigs() {
			for _, k := range ks {
				e, err := silicon.Simulate(dev, k, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sec, w, err := tr.Launch(k, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(sec) != math.Float64bits(e.Seconds()) || math.Float64bits(w) != math.Float64bits(tr.Power(e)) {
					t.Fatalf("%s %v %s: Launch = (%v s, %v W), Simulate and Power give (%v s, %v W)",
						dev.Name, cfg, k.Name, sec, w, e.Seconds(), tr.Power(e))
				}
			}
		}
	}
}

// The sampling loop skips Execute's ground-truth record; the launch it
// reports must still be Execute's, throttled or not.
func TestSampledAveragePowerRunMatchesExecute(t *testing.T) {
	s := newSim(t, "GTX Titan X")
	for _, k := range []*kernels.KernelSpec{lightKernel(), hotKernel()} {
		for _, cfg := range []hw.Config{{CoreMHz: 975, MemMHz: 3505}, {CoreMHz: 1164, MemMHz: 4005}} {
			if err := s.SetClocks(cfg); err != nil {
				t.Fatal(err)
			}
			run, err := s.Execute(k)
			if err != nil {
				t.Fatal(err)
			}
			_, got, err := s.SampledKernelPower(k, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if got.Requested != run.Requested || got.Effective != run.Effective || got.Seconds != run.Exec.Seconds() {
				t.Fatalf("%s at %v: sampled run %+v, Execute ran %v → %v for %v s",
					k.Name, cfg, got, run.Requested, run.Effective, run.Exec.Seconds())
			}
		}
	}
}

func TestSampledAveragePowerAllocFree(t *testing.T) {
	s := newSim(t, "GTX Titan X")
	k := hotKernel()
	if err := s.SetClocks(hw.Config{CoreMHz: 1164, MemMHz: 4005}); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(50, func() {
		if _, _, err := s.SampledKernelPower(k, time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("SampledAveragePower allocates %v times per call, want 0", n)
	}
}

func TestSampledAveragePowerLongRun(t *testing.T) {
	s := newSim(t, "GTX Titan X")
	if err := s.SetClocks(hw.Config{CoreMHz: 975, MemMHz: 3505}); err != nil {
		t.Fatal(err)
	}
	run, err := s.Execute(lightKernel())
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := s.SampledKernelPower(lightKernel(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(p-run.TruePower) / run.TruePower; rel > 0.03 {
		t.Fatalf("1 s sampled power %g deviates %.1f%% from true %g", p, 100*rel, run.TruePower)
	}
}

func TestShortRunMixesIdlePower(t *testing.T) {
	// A run shorter than the sensor refresh must bias the reading toward
	// idle power — the pathology that forces the ≥1 s repetition rule.
	s := newSim(t, "GTX Titan X") // 100 ms refresh
	if err := s.SetClocks(hw.Config{CoreMHz: 975, MemMHz: 3505}); err != nil {
		t.Fatal(err)
	}
	k := lightKernel()
	run, err := s.Execute(k)
	if err != nil {
		t.Fatal(err)
	}
	if run.Exec.Seconds() > 0.01 {
		t.Skipf("test kernel too slow (%v) for the short-run scenario", run.Exec.Time)
	}
	idle := s.IdlePower()
	p, _, err := s.SampledKernelPower(k, 0) // no repetition: single launch
	if err != nil {
		t.Fatal(err)
	}
	if p >= run.TruePower {
		t.Fatalf("short-run reading %g not biased below true %g", p, run.TruePower)
	}
	if p <= idle*0.8 {
		t.Fatalf("short-run reading %g below idle %g", p, idle)
	}
}

// A throttled run shorter than one sensor window mixes in the idle power
// of the clocks the governor fell back to: those are the clocks in force
// around the launch, not the requested ones.
func TestShortThrottledRunMixesEffectiveIdle(t *testing.T) {
	s := newSim(t, "GTX Titan X")
	if err := s.SetClocks(hw.Config{CoreMHz: 1164, MemMHz: 4005}); err != nil {
		t.Fatal(err)
	}
	k := shortHotKernel()
	run, err := s.Execute(k)
	if err != nil {
		t.Fatal(err)
	}
	refresh := s.Device().SensorRefresh.Seconds()
	if run.Effective == run.Requested || run.Exec.Seconds() >= refresh {
		t.Fatalf("not a short throttled run: %v → %v for %v s", run.Requested, run.Effective, run.Exec.Seconds())
	}
	got, _, err := s.SampledKernelPower(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Execute draws no sensor noise, so the first reading of a twin device
	// is the draw SampledAveragePower took. The two idle powers are 7.7 W
	// apart; the 2 mW tolerance only absorbs the 1 mW quantization.
	frac := run.Exec.Seconds() / refresh
	want := newSim(t, "GTX Titan X").noisyReading(frac*run.TruePower + (1-frac)*s.truth.IdlePower(run.Effective))
	if math.Abs(got-want) > 0.002 {
		t.Fatalf("short throttled reading %g W, want %g W (idle power at the effective %v; requested %v idles at %g W, effective at %g W)",
			got, want, run.Effective, run.Requested, s.truth.IdlePower(run.Requested), s.truth.IdlePower(run.Effective))
	}
}

func TestSampledIdlePower(t *testing.T) {
	s := newSim(t, "GTX Titan X")
	if err := s.SetClocks(hw.Config{CoreMHz: 975, MemMHz: 3505}); err != nil {
		t.Fatal(err)
	}
	idle := s.IdlePower()
	meas, err := s.SampledIdlePower(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(meas-idle)/idle > 0.05 {
		t.Fatalf("sampled idle %g vs true %g", meas, idle)
	}
}

func TestDeterminismAcrossInstances(t *testing.T) {
	a := newSim(t, "Tesla K40c")
	b := newSim(t, "Tesla K40c")
	pa, _, err := a.SampledKernelPower(lightKernel(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	pb, _, err := b.SampledKernelPower(lightKernel(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if pa != pb {
		t.Fatalf("same seed, different measurements: %g vs %g", pa, pb)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	dev := hw.GTXTitanX()
	a, err := New(dev, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(hw.GTXTitanX(), 2)
	if err != nil {
		t.Fatal(err)
	}
	pa, _, _ := a.SampledKernelPower(lightKernel(), 100*time.Millisecond)
	pb, _, _ := b.SampledKernelPower(lightKernel(), 100*time.Millisecond)
	if pa == pb {
		t.Fatal("different seeds produced identical noisy readings")
	}
}

func TestThirdPartyVoltageReadout(t *testing.T) {
	s := newSim(t, "GTX Titan X")
	if v := s.ThirdPartyVoltageReadout(975); v != 1 {
		t.Fatalf("V̄ at ref = %g, want 1", v)
	}
	if v := s.ThirdPartyVoltageReadout(595); v >= 1 {
		t.Fatalf("V̄ at floor = %g, want < 1", v)
	}
	if v := s.ThirdPartyVoltageReadout(1164); v <= 1 {
		t.Fatalf("V̄ at top = %g, want > 1", v)
	}
}

func TestMilliwattQuantization(t *testing.T) {
	// A single sensor reading (one refresh window) is quantized to mW,
	// like real NVML.
	s := newSim(t, "GTX Titan X")
	p, err := s.SampledIdlePower(s.Device().SensorRefresh)
	if err != nil {
		t.Fatal(err)
	}
	if p != math.Trunc(p*1000)/1000 {
		t.Fatalf("reading %v not quantized to mW", p)
	}
}
