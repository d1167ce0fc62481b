package sim

import (
	"math"
	"testing"
	"time"

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

func TestSetClocksValidation(t *testing.T) {
	s := newSim(t, "GTX Titan X")
	if err := s.SetClocks(3505, 975); err != nil {
		t.Fatal(err)
	}
	if got := s.Clocks(); got.CoreMHz != 975 || got.MemMHz != 3505 {
		t.Fatalf("Clocks = %v", got)
	}
	if err := s.SetClocks(1234, 975); err == nil {
		t.Fatal("bad memory clock accepted")
	}
	if err := s.SetClocks(3505, 1000); err == nil {
		t.Fatal("bad core clock accepted")
	}
}

func TestExecuteAtRequestedClocks(t *testing.T) {
	s := newSim(t, "GTX Titan X")
	if err := s.SetClocks(810, 595); err != nil {
		t.Fatal(err)
	}
	run, err := s.Execute(lightKernel())
	if err != nil {
		t.Fatal(err)
	}
	if run.Requested != run.Effective {
		t.Fatalf("light kernel throttled: %v -> %v", run.Requested, run.Effective)
	}
	if run.TruePower <= 0 || run.TruePower > s.HW().TDP {
		t.Fatalf("power %g out of range", run.TruePower)
	}
}

func TestTDPGovernorCapsCoreClock(t *testing.T) {
	s := newSim(t, "GTX Titan X")
	if err := s.SetClocks(4005, 1164); err != nil {
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
	if run.TruePower > s.HW().TDP {
		t.Fatalf("post-throttle power %.0f W exceeds TDP", run.TruePower)
	}
	// The governor must pick the closest feasible level: one step up would
	// violate TDP again.
	ladder := s.HW().CoreFreqs
	for i, f := range ladder {
		if f == run.Effective.CoreMHz && i+1 < len(ladder) && ladder[i+1] < run.Requested.CoreMHz {
			if err := s.SetClocks(4005, ladder[i+1]); err != nil {
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
			if err := s.SetClocks(cfg.MemMHz, cfg.CoreMHz); err != nil {
				t.Fatal(err)
			}
			run, err := s.Execute(k)
			if err != nil {
				t.Fatal(err)
			}
			_, got, err := s.SampledAveragePower(k, time.Second)
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
	if err := s.SetClocks(4005, 1164); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(50, func() {
		if _, _, err := s.SampledAveragePower(k, time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("SampledAveragePower allocates %v times per call, want 0", n)
	}
}

func TestSampledAveragePowerLongRun(t *testing.T) {
	s := newSim(t, "GTX Titan X")
	if err := s.SetClocks(3505, 975); err != nil {
		t.Fatal(err)
	}
	run, err := s.Execute(lightKernel())
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := s.SampledAveragePower(lightKernel(), time.Second)
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
	if err := s.SetClocks(3505, 975); err != nil {
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
	p, _, err := s.SampledAveragePower(k, 0) // no repetition: single launch
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

func TestSampledIdlePower(t *testing.T) {
	s := newSim(t, "GTX Titan X")
	if err := s.SetClocks(3505, 975); err != nil {
		t.Fatal(err)
	}
	idle := s.IdlePower()
	meas := s.SampledIdlePower(time.Second)
	if math.Abs(meas-idle)/idle > 0.05 {
		t.Fatalf("sampled idle %g vs true %g", meas, idle)
	}
}

func TestDeterminismAcrossInstances(t *testing.T) {
	a := newSim(t, "Tesla K40c")
	b := newSim(t, "Tesla K40c")
	pa, _, err := a.SampledAveragePower(lightKernel(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	pb, _, err := b.SampledAveragePower(lightKernel(), time.Second)
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
	pa, _, _ := a.SampledAveragePower(lightKernel(), 100*time.Millisecond)
	pb, _, _ := b.SampledAveragePower(lightKernel(), 100*time.Millisecond)
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
	p := s.SampledIdlePower(s.HW().SensorRefresh)
	if p != math.Trunc(p*1000)/1000 {
		t.Fatalf("reading %v not quantized to mW", p)
	}
}
