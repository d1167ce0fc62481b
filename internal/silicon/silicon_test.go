package silicon

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"gpupower/internal/hw"
	"gpupower/internal/kernels"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVoltageCurveInterpolation(t *testing.T) {
	c := MustVoltageCurve(
		VoltagePoint{FMHz: 500, Volts: 0.9},
		VoltagePoint{FMHz: 700, Volts: 0.9},
		VoltagePoint{FMHz: 1000, Volts: 1.2},
	)
	if c.VoltsAt(300) != 0.9 {
		t.Fatal("below-range clamp failed")
	}
	if c.VoltsAt(600) != 0.9 {
		t.Fatal("plateau failed")
	}
	if !almostEq(c.VoltsAt(850), 1.05, 1e-12) {
		t.Fatalf("interp at 850 = %g, want 1.05", c.VoltsAt(850))
	}
	// Above the last anchor: extrapolate the final slope.
	if !almostEq(c.VoltsAt(1300), 1.5, 1e-12) {
		t.Fatalf("extrapolation = %g, want 1.5", c.VoltsAt(1300))
	}
}

func TestVoltageCurveNormalization(t *testing.T) {
	c := MustVoltageCurve(
		VoltagePoint{FMHz: 500, Volts: 0.8},
		VoltagePoint{FMHz: 1000, Volts: 1.6},
	)
	if !almostEq(c.NormalizedAt(500, 1000), 0.5, 1e-12) {
		t.Fatal("normalization wrong")
	}
	if c.NormalizedAt(1000, 1000) != 1 {
		t.Fatal("self-normalization should be 1")
	}
}

func TestVoltageCurveValidation(t *testing.T) {
	if _, err := NewVoltageCurve(); err == nil {
		t.Fatal("empty curve accepted")
	}
	if _, err := NewVoltageCurve(VoltagePoint{FMHz: 1, Volts: 0}); err == nil {
		t.Fatal("zero voltage accepted")
	}
	if _, err := NewVoltageCurve(
		VoltagePoint{FMHz: 1, Volts: 1},
		VoltagePoint{FMHz: 1, Volts: 2},
	); err == nil {
		t.Fatal("duplicate frequency accepted")
	}
	if _, err := NewVoltageCurve(
		VoltagePoint{FMHz: 1, Volts: 2},
		VoltagePoint{FMHz: 2, Volts: 1},
	); err == nil {
		t.Fatal("decreasing voltage accepted")
	}
}

// Property: V(f) is non-decreasing in f for every catalog truth.
func TestCatalogVoltageMonotone(t *testing.T) {
	for _, dev := range hw.AllDevices() {
		tr := MustTruthFor(dev)
		prev := 0.0
		for _, f := range dev.CoreFreqs {
			v := tr.CoreV.VoltsAt(f)
			if v < prev {
				t.Fatalf("%s: core voltage decreases at %g MHz", dev.Name, f)
			}
			prev = v
		}
		if tr.CoreVNorm(dev.DefaultCore) != 1 {
			t.Fatalf("%s: V̄core(ref) != 1", dev.Name)
		}
		if tr.MemVNorm(dev.DefaultMem) != 1 {
			t.Fatalf("%s: V̄mem(ref) != 1", dev.Name)
		}
	}
}

func TestTruthForUnknownDevice(t *testing.T) {
	d := hw.GTXTitanX()
	d.Name = "GTX 480"
	if _, err := TruthFor(d); err == nil {
		t.Fatal("unknown device accepted")
	}
}

func testKernel() *kernels.KernelSpec {
	return &kernels.KernelSpec{
		Name: "test",
		WarpInstrs: map[hw.Component]float64{
			hw.SP:  5e8,
			hw.Int: 1e8,
		},
		L2ReadBytes:     6e7,
		L2WriteBytes:    2e7,
		DRAMReadBytes:   6e7,
		DRAMWriteBytes:  2e7,
		FixedCycles:     1e5,
		IssueEfficiency: 0.9,
	}
}

func TestSimulateUtilizationBounds(t *testing.T) {
	dev := hw.GTXTitanX()
	for _, cfg := range dev.AllConfigs() {
		e, err := Simulate(dev, testKernel(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for c, u := range e.Utilization {
			if u < 0 || u > 1 {
				t.Fatalf("U(%s) = %g at %v", c, u, cfg)
			}
		}
		if e.Time <= 0 || e.ActiveCycles <= 0 {
			t.Fatalf("non-positive time/cycles at %v", cfg)
		}
	}
}

func TestSimulateBottleneckSaturation(t *testing.T) {
	// A pure-SP kernel with no stalls: SP utilization equals the issue
	// efficiency (the bottleneck saturates there).
	dev := hw.GTXTitanX()
	k := &kernels.KernelSpec{
		Name:            "sp_only",
		WarpInstrs:      map[hw.Component]float64{hw.SP: 1e10},
		IssueEfficiency: 0.92,
	}
	e, err := Simulate(dev, k, dev.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(e.Utilization[hw.SP], 0.92, 1e-6) {
		t.Fatalf("U(SP) = %g, want 0.92", e.Utilization[hw.SP])
	}
}

func TestSimulateMemoryBoundShiftsWithFmem(t *testing.T) {
	// A DRAM-bound kernel runs slower at low memory frequency, and its
	// compute utilization rises when the core slows down relative to memory.
	dev := hw.GTXTitanX()
	k := &kernels.KernelSpec{
		Name:            "streaming",
		WarpInstrs:      map[hw.Component]float64{hw.SP: 1e8},
		L2ReadBytes:     2e9,
		DRAMReadBytes:   2e9,
		IssueEfficiency: 0.95,
	}
	hi, err := Simulate(dev, k, hw.Config{CoreMHz: 975, MemMHz: 3505})
	if err != nil {
		t.Fatal(err)
	}
	lo, err := Simulate(dev, k, hw.Config{CoreMHz: 975, MemMHz: 810})
	if err != nil {
		t.Fatal(err)
	}
	if lo.Time <= hi.Time {
		t.Fatal("lower memory frequency should slow a DRAM-bound kernel")
	}
	if lo.Utilization[hw.DRAM] < hi.Utilization[hw.DRAM] {
		t.Fatal("DRAM utilization should not drop when memory slows")
	}
	slowCore, err := Simulate(dev, k, hw.Config{CoreMHz: 595, MemMHz: 3505})
	if err != nil {
		t.Fatal(err)
	}
	if slowCore.Utilization[hw.SP] < hi.Utilization[hw.SP] {
		t.Fatal("compute utilization should rise as the core slows under a memory bound")
	}
}

func TestSimulateRejectsBadInput(t *testing.T) {
	dev := hw.GTXTitanX()
	if _, err := Simulate(dev, testKernel(), hw.Config{CoreMHz: 123, MemMHz: 3505}); err == nil {
		t.Fatal("unsupported config accepted")
	}
	bad := testKernel()
	bad.IssueEfficiency = 0
	if _, err := Simulate(dev, bad, dev.DefaultConfig()); err == nil {
		t.Fatal("invalid kernel accepted")
	}
}

func TestPowerBreakdownConsistency(t *testing.T) {
	dev := hw.GTXTitanX()
	tr := MustTruthFor(dev)
	e, err := Simulate(dev, testKernel(), dev.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := tr.Breakdown(e)
	if !almostEq(b.Total(), tr.Power(e), 1e-9) {
		t.Fatal("breakdown total != power")
	}
	if b.Constant <= 0 {
		t.Fatal("constant share must be positive")
	}
	for c, v := range b.Component {
		if v < 0 {
			t.Fatalf("negative component power for %s", c)
		}
	}
}

// PowerFromUtilization skips building the breakdown but must return its
// total to the bit: the simulator's measurements, and so every dataset and
// golden model, go through it.
func TestPowerFromUtilizationMatchesBreakdown(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	utils := []map[hw.Component]float64{nil, {}, {hw.SP: -0.5, hw.DRAM: 1}}
	for i := 0; i < 50; i++ {
		u := map[hw.Component]float64{}
		for _, c := range hw.Components {
			u[c] = rng.Float64()
		}
		utils = append(utils, u)
	}
	for _, dev := range hw.AllDevices() {
		tr := MustTruthFor(dev)
		for _, cfg := range dev.AllConfigs() {
			for i, u := range utils {
				got := tr.PowerFromUtilization(cfg, u)
				want := tr.BreakdownFromUtilization(cfg, u).Total()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %v util %d: PowerFromUtilization = %v, breakdown total %v", dev.Name, cfg, i, got, want)
				}
			}
		}
	}
}

// Launch must reject what Simulate rejects.
func TestLaunchRejectsBadInput(t *testing.T) {
	dev := hw.GTXTitanX()
	tr := MustTruthFor(dev)
	if _, _, err := tr.Launch(testKernel(), hw.Config{CoreMHz: 123, MemMHz: 3505}); err == nil {
		t.Fatal("Launch accepted an unsupported config")
	}
	bad := testKernel()
	bad.IssueEfficiency = 0
	if _, _, err := tr.Launch(bad, dev.DefaultConfig()); err == nil {
		t.Fatal("Launch accepted an invalid kernel")
	}
}

func TestLaunchAllocFree(t *testing.T) {
	dev := hw.GTXTitanX()
	tr := MustTruthFor(dev)
	k, cfg := testKernel(), dev.DefaultConfig()
	if n := testing.AllocsPerRun(100, func() { tr.Launch(k, cfg); tr.IdlePower(cfg) }); n != 0 {
		t.Fatalf("Launch and IdlePower allocate %v times per call, want 0", n)
	}
}

func TestTitanXCalibrationAnchors(t *testing.T) {
	// The calibrated ground truth must land on the paper's operating
	// points: ~84 W constant at (975, 3505) and ~50 W at (975, 810).
	dev := hw.GTXTitanX()
	tr := MustTruthFor(dev)
	idleHi := tr.IdlePower(hw.Config{CoreMHz: 975, MemMHz: 3505})
	idleLo := tr.IdlePower(hw.Config{CoreMHz: 975, MemMHz: 810})
	if math.Abs(idleHi-84) > 4 {
		t.Fatalf("idle at default = %.1f W, want ~84", idleHi)
	}
	if math.Abs(idleLo-50) > 4 {
		t.Fatalf("idle at low mem = %.1f W, want ~50", idleLo)
	}
}

// Property: true power increases with any component utilization.
func TestPowerMonotoneInUtilization(t *testing.T) {
	dev := hw.GTXTitanX()
	tr := MustTruthFor(dev)
	cfg := dev.DefaultConfig()
	f := func(base [7]float64, idx uint8, delta float64) bool {
		u := map[hw.Component]float64{}
		for i, c := range hw.Components {
			u[c] = math.Abs(math.Mod(base[i], 1))
		}
		c := hw.Components[int(idx)%len(hw.Components)]
		d := math.Abs(math.Mod(delta, 1))
		if math.IsNaN(d) {
			return true
		}
		p1 := tr.PowerFromUtilization(cfg, u)
		u2 := map[hw.Component]float64{}
		for k, v := range u {
			u2[k] = v
		}
		u2[c] = math.Min(1, u2[c]+d)
		p2 := tr.PowerFromUtilization(cfg, u2)
		return p2 >= p1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIdlePowerBelowTDP(t *testing.T) {
	for _, dev := range hw.AllDevices() {
		tr := MustTruthFor(dev)
		for _, cfg := range dev.AllConfigs() {
			if p := tr.IdlePower(cfg); p <= 0 || p >= dev.TDP {
				t.Fatalf("%s idle power %g W at %v out of (0, TDP)", dev.Name, p, cfg)
			}
		}
	}
}

func TestStallSecondsExtendTime(t *testing.T) {
	dev := hw.GTXTitanX()
	k1 := testKernel()
	k2 := testKernel()
	k2.StallSeconds = 1e-3
	e1, err := Simulate(dev, k1, dev.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Simulate(dev, k2, dev.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(e2.Seconds()-e1.Seconds(), 1e-3, 1e-9) {
		t.Fatalf("stall time not additive: %g vs %g", e1.Seconds(), e2.Seconds())
	}
}
