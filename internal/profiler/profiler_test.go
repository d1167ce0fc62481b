package profiler

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"gpupower/internal/backend"
	"gpupower/internal/hw"
	"gpupower/internal/kernels"
	"gpupower/internal/sim"
)

func newProfiler(t *testing.T, name string) (*Profiler, *sim.Device) {
	t.Helper()
	b, err := sim.Open(name, 42)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(b)
	if err != nil {
		t.Fatal(err)
	}
	return p, b
}

func kern(name string, spWork float64) *kernels.KernelSpec {
	return &kernels.KernelSpec{
		Name:            name,
		WarpInstrs:      map[hw.Component]float64{hw.SP: spWork, hw.Int: spWork / 4},
		L2ReadBytes:     1e8,
		DRAMReadBytes:   1e8,
		FixedCycles:     1e5,
		IssueEfficiency: 0.9,
	}
}

func TestDefaults(t *testing.T) {
	p, _ := newProfiler(t, "GTX Titan X")
	if p.MinWall != time.Second {
		t.Fatalf("MinWall = %v, want 1s (paper methodology)", p.MinWall)
	}
	if p.Repeats != 10 {
		t.Fatalf("Repeats = %d, want 10 (paper methodology)", p.Repeats)
	}
}

func TestNewRejectsNilBackend(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil backend accepted")
	}
}

func TestMeasureKernelPowerAccuracy(t *testing.T) {
	ctx := context.Background()
	p, b := newProfiler(t, "GTX Titan X")
	cfg := hw.Config{CoreMHz: 975, MemMHz: 3505}
	pw, _, err := p.MeasureKernelPower(ctx, kern("k", 5e9), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth from the simulator (a real device would not expose it).
	run, err := b.Execute(kern("k", 5e9))
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(pw-run.TruePower) / run.TruePower; rel > 0.02 {
		t.Fatalf("measured %g vs true %g (%.1f%%)", pw, run.TruePower, 100*rel)
	}
}

func TestMeasureKernelPowerInvalidRepeats(t *testing.T) {
	p, _ := newProfiler(t, "GTX Titan X")
	p.Repeats = 0
	if _, _, err := p.MeasureKernelPower(context.Background(), kern("k", 1e9), p.HW().DefaultConfig()); err == nil {
		t.Fatal("Repeats=0 accepted")
	}
}

func TestMeasureKernelPowerCancellation(t *testing.T) {
	p, _ := newProfiler(t, "GTX Titan X")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := p.MeasureKernelPower(ctx, kern("k", 1e9), p.HW().DefaultConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestMeasureAppPowerWeighting(t *testing.T) {
	// A two-kernel app's power is the time-weighted mean of its kernels'.
	ctx := context.Background()
	p, _ := newProfiler(t, "GTX Titan X")
	cfg := p.HW().DefaultConfig()
	k1 := kern("light", 1e9)
	k2 := kern("heavy", 4e10)
	app := &kernels.App{Name: "two", Kernels: []*kernels.KernelSpec{k1, k2}}

	p1, r1, err := p.MeasureKernelPower(ctx, k1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, r2, err := p.MeasureKernelPower(ctx, k2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := (p1*r1.Seconds + p2*r2.Seconds) / (r1.Seconds + r2.Seconds)
	got, err := p.MeasureAppPower(ctx, app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want)/want > 0.02 {
		t.Fatalf("weighted power %g, want ~%g", got, want)
	}
	// The weighted mean must sit strictly between the two kernel powers
	// (they differ on this pair), closer to the long-running kernel.
	lo, hi := math.Min(p1, p2), math.Max(p1, p2)
	if got < lo || got > hi {
		t.Fatalf("weighted power %g outside [%g, %g]", got, lo, hi)
	}
}

func TestMeasureAppPowerRejectsInvalid(t *testing.T) {
	p, _ := newProfiler(t, "GTX Titan X")
	if _, err := p.MeasureAppPower(context.Background(), &kernels.App{Name: "empty"}, p.HW().DefaultConfig()); err == nil {
		t.Fatal("empty app accepted")
	}
}

func TestProfileAppCollectsAllMetrics(t *testing.T) {
	p, _ := newProfiler(t, "GTX Titan X")
	ref := p.HW().DefaultConfig()
	app := kernels.SingleKernelApp(kern("k", 5e9))
	prof, err := p.ProfileApp(context.Background(), app, ref)
	if err != nil {
		t.Fatal(err)
	}
	if prof.RefConfig != ref || len(prof.Kernels) != 1 {
		t.Fatal("profile shape wrong")
	}
	for _, m := range backend.AllMetrics {
		if _, ok := prof.Kernels[0].Metrics[m]; !ok {
			t.Fatalf("metric %s missing", m)
		}
	}
	if prof.Kernels[0].Seconds <= 0 {
		t.Fatal("non-positive kernel time")
	}
}

func TestProfileAppRejectsThrottledReference(t *testing.T) {
	// A kernel that throttles at the requested reference configuration must
	// be rejected: its events would not correspond to the assumed clocks.
	p, _ := newProfiler(t, "GTX Titan X")
	hot := &kernels.KernelSpec{
		Name: "hot",
		WarpInstrs: map[hw.Component]float64{
			hw.SP: 2e10, hw.Int: 1.6e10, hw.SF: 4e9,
		},
		SharedLoadBytes: 5e9, SharedStoreBytes: 5e9,
		L2ReadBytes: 8e9, L2WriteBytes: 4e9,
		DRAMReadBytes: 8e9, DRAMWriteBytes: 4e9,
		IssueEfficiency: 0.95,
	}
	ref := hw.Config{CoreMHz: 1164, MemMHz: 4005}
	_, err := p.ProfileApp(context.Background(), kernels.SingleKernelApp(hot), ref)
	if err == nil {
		t.Fatal("throttled reference profile accepted")
	}
	if !errors.Is(err, backend.ErrThrottled) {
		t.Fatalf("err = %v, want wrapped backend.ErrThrottled", err)
	}
}

func TestMeasureIdlePower(t *testing.T) {
	ctx := context.Background()
	p, _ := newProfiler(t, "GTX Titan X")
	got, err := p.MeasureIdlePower(ctx, hw.Config{CoreMHz: 975, MemMHz: 3505})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-84) > 5 {
		t.Fatalf("idle = %g W, want ~84 (paper Fig. 5)", got)
	}
	lo, err := p.MeasureIdlePower(ctx, hw.Config{CoreMHz: 975, MemMHz: 810})
	if err != nil {
		t.Fatal(err)
	}
	if lo >= got {
		t.Fatal("idle power should drop at the low memory frequency")
	}
}

func TestSetClocksPropagates(t *testing.T) {
	ctx := context.Background()
	p, b := newProfiler(t, "GTX Titan X")
	if _, _, err := p.MeasureKernelPower(ctx, kern("k", 1e9), hw.Config{CoreMHz: 595, MemMHz: 810}); err != nil {
		t.Fatal(err)
	}
	if got := b.Clocks(); got.CoreMHz != 595 || got.MemMHz != 810 {
		t.Fatalf("clocks = %v after measurement", got)
	}
	if _, _, err := p.MeasureKernelPower(ctx, kern("k", 1e9), hw.Config{CoreMHz: 111, MemMHz: 810}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRunKernelAt(t *testing.T) {
	p, _ := newProfiler(t, "GTX Titan X")
	e, s, err := p.RunKernelAt(kern("k", 5e9), p.HW().DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if e <= 0 || s <= 0 {
		t.Fatalf("energy %g J, time %g s: want both positive", e, s)
	}
	// Energy / time must be a plausible average power (under TDP).
	if pw := e / s; pw <= 0 || pw > p.HW().TDP {
		t.Fatalf("implied power %g W outside (0, TDP]", pw)
	}
}

func TestMedianRobustToRepeats(t *testing.T) {
	// More repeats must not change the measurement by more than the noise
	// scale.
	ctx := context.Background()
	p, _ := newProfiler(t, "Tesla K40c")
	cfg := p.HW().DefaultConfig()
	p.Repeats = 3
	a, _, err := p.MeasureKernelPower(ctx, kern("k", 5e9), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Repeats = 15
	b, _, err := p.MeasureKernelPower(ctx, kern("k", 5e9), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b)/a > 0.02 {
		t.Fatalf("median unstable: %g vs %g", a, b)
	}
}
