package core

import (
	"math"
	"testing"

	"gpupower/internal/backend"
	"gpupower/internal/hw"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// syntheticMetrics builds an exact Table I metric set for a hypothetical
// kernel on the GTX Titan X at the default configuration.
func syntheticMetrics(aCycles float64) backend.Metrics {
	return backend.Metrics{
		backend.MetricACycles:     aCycles,
		backend.MetricWarpsSPInt:  2.7e8,
		backend.MetricInstInt:     0.3e8 * 32, // 1/9 of the combined warps are INT
		backend.MetricInstSP:      2.4e8 * 32,
		backend.MetricWarpsDP:     1e7,
		backend.MetricWarpsSF:     5e7,
		backend.MetricSharedLoad:  2e6,
		backend.MetricSharedStore: 1e6,
		backend.MetricL2Read:      8e6,
		backend.MetricL2Write:     4e6,
		backend.MetricDRAMRead:    6e6,
		backend.MetricDRAMWrite:   2e6,
	}
}

func TestUtilizationFromMetricsEquations(t *testing.T) {
	dev := hw.GTXTitanX()
	ref := dev.DefaultConfig()
	aCycles := 5e-3 * ref.CoreMHz * 1e6 // 5 ms of active time
	m := syntheticMetrics(aCycles)
	const l2bpc = 768.0

	u, err := UtilizationFromMetrics(dev, ref, m, l2bpc)
	if err != nil {
		t.Fatal(err)
	}

	// Eq. 10: warps split 1:8 between INT and SP.
	warpsInt := 2.7e8 * 1.0 / 9.0
	warpsSP := 2.7e8 * 8.0 / 9.0
	// Eq. 8 (device-total form).
	wantInt := warpsInt * 32 / (aCycles * 128 * 24)
	wantSP := warpsSP * 32 / (aCycles * 128 * 24)
	wantDP := 1e7 * 32 / (aCycles * 4 * 24)
	wantSF := 5e7 * 32 / (aCycles * 32 * 24)
	// Eq. 9.
	seconds := aCycles / (ref.CoreMHz * 1e6)
	wantShared := (3e6 * 128) / seconds / dev.PeakSharedBandwidth(ref.CoreMHz)
	wantL2 := (12e6 * 32) / seconds / (ref.CoreMHz * 1e6 * l2bpc)
	wantDRAM := (8e6 * 32) / seconds / dev.PeakDRAMBandwidth(ref.MemMHz)

	checks := []struct {
		c    hw.Component
		want float64
	}{
		{hw.Int, wantInt}, {hw.SP, wantSP}, {hw.DP, wantDP}, {hw.SF, wantSF},
		{hw.Shared, wantShared}, {hw.L2, wantL2}, {hw.DRAM, wantDRAM},
	}
	for _, c := range checks {
		if !almostEq(u[c.c], c.want, 1e-12) {
			t.Errorf("U(%s) = %g, want %g", c.c, u[c.c], c.want)
		}
	}
}

func TestUtilizationClamping(t *testing.T) {
	dev := hw.GTXTitanX()
	ref := dev.DefaultConfig()
	m := syntheticMetrics(1e6)
	// Absurdly high DRAM sectors: must clamp to 1.
	m[backend.MetricDRAMRead] = 1e15
	u, err := UtilizationFromMetrics(dev, ref, m, 768)
	if err != nil {
		t.Fatal(err)
	}
	if u[hw.DRAM] != 1 {
		t.Fatalf("U(DRAM) = %g, want clamp at 1", u[hw.DRAM])
	}
}

func TestUtilizationZeroInstructionSplit(t *testing.T) {
	// No INT/SP instructions at all: both utilizations must be zero, not NaN.
	dev := hw.GTXTitanX()
	ref := dev.DefaultConfig()
	m := syntheticMetrics(1e9)
	m[backend.MetricWarpsSPInt] = 0
	m[backend.MetricInstInt] = 0
	m[backend.MetricInstSP] = 0
	u, err := UtilizationFromMetrics(dev, ref, m, 768)
	if err != nil {
		t.Fatal(err)
	}
	if u[hw.Int] != 0 || u[hw.SP] != 0 {
		t.Fatalf("INT/SP = (%g, %g), want zeros", u[hw.Int], u[hw.SP])
	}
	if math.IsNaN(u[hw.Int]) {
		t.Fatal("NaN utilization")
	}
}

func TestUtilizationErrors(t *testing.T) {
	dev := hw.GTXTitanX()
	ref := dev.DefaultConfig()
	m := syntheticMetrics(0)
	if _, err := UtilizationFromMetrics(dev, ref, m, 768); err == nil {
		t.Fatal("zero active cycles accepted")
	}
	m = syntheticMetrics(1e9)
	if _, err := UtilizationFromMetrics(dev, ref, m, 0); err == nil {
		t.Fatal("zero L2 peak accepted")
	}
}

func TestUtilizationValidateAndClone(t *testing.T) {
	u := Utilization{hw.SP: 0.5, hw.DRAM: 0.9}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	c := u.Clone()
	c[hw.SP] = 0.1
	if u[hw.SP] != 0.5 {
		t.Fatal("Clone shares storage")
	}
	bad := Utilization{hw.SP: 1.5}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range utilization accepted")
	}
	bad2 := Utilization{hw.Component(42): 0.5}
	if err := bad2.Validate(); err == nil {
		t.Fatal("invalid component accepted")
	}
}

// TestUtilizationValidateDeterministic: with several bad entries, Validate
// names the first out-of-range rate in hw.Components order, else the
// lowest invalid key, whatever order the map iterates in.
func TestUtilizationValidateDeterministic(t *testing.T) {
	cases := []struct {
		u    Utilization
		want string
	}{
		{Utilization{hw.SP: 50, hw.DP: 7, hw.Int: 9}, "core: utilization of INT is 9, outside [0,1]"},
		{Utilization{hw.DRAM: -1, hw.Component(42): 0.5, hw.L2: 0.5}, "core: utilization of DRAM is -1, outside [0,1]"},
		{Utilization{hw.Component(42): 0.5, hw.Component(-3): 0.5, hw.Component(9): 2, hw.SP: 0.5}, "core: utilization has invalid component Component(-3)"},
	}
	for _, tc := range cases {
		for i := 0; i < 200; i++ {
			err := tc.u.Validate()
			if err == nil || err.Error() != tc.want {
				t.Fatalf("call %d on %v: %v, want %q", i, tc.u, err, tc.want)
			}
		}
	}
}
