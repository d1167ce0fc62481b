package microbench

import (
	"strings"
	"testing"

	"gpupower/internal/hw"
	"gpupower/internal/silicon"
)

func TestSuiteSize(t *testing.T) {
	suite := Suite()
	if len(suite) != SuiteSize || len(suite) != 83 {
		t.Fatalf("suite size = %d, want 83", len(suite))
	}
}

// TestCollectionCounts checks the paper's Fig. 5 group sizes:
// INT×12, SP×11, DP×12, SF×8, L2×10, Shared×10, DRAM×12, MIX×7, Idle×1.
func TestCollectionCounts(t *testing.T) {
	want := map[Collection]int{
		CollInt: 12, CollSP: 11, CollDP: 12, CollSF: 8,
		CollL2: 10, CollShared: 10, CollDRAM: 12, CollMix: 7, CollIdle: 1,
	}
	got := map[Collection]int{}
	for _, b := range Suite() {
		got[b.Collection]++
	}
	for coll, n := range want {
		if got[coll] != n {
			t.Errorf("%s: %d benchmarks, want %d", coll, got[coll], n)
		}
	}
}

func TestAllKernelsValid(t *testing.T) {
	for _, b := range Suite() {
		if err := b.Kernel.Validate(); err != nil {
			t.Errorf("%s: %v", b.Kernel.Name, err)
		}
	}
}

func TestUniqueNames(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range Suite() {
		if seen[b.Kernel.Name] {
			t.Errorf("duplicate benchmark name %q", b.Kernel.Name)
		}
		seen[b.Kernel.Name] = true
	}
}

func TestByCollection(t *testing.T) {
	groups := ByCollection(Suite())
	if len(groups) != len(Collections) {
		t.Fatalf("group count = %d, want %d", len(groups), len(Collections))
	}
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total != SuiteSize {
		t.Fatalf("grouped total = %d", total)
	}
}

// TestArithmeticIntensityGradient reproduces the Fig. 5A property: within a
// compute collection, increasing N raises the unit's utilization and lowers
// the DRAM utilization.
func TestArithmeticIntensityGradient(t *testing.T) {
	dev := hw.GTXTitanX()
	cfg := dev.DefaultConfig()
	for _, tc := range []struct {
		coll Collection
		unit hw.Component
	}{
		{CollInt, hw.Int}, {CollSP, hw.SP}, {CollDP, hw.DP}, {CollSF, hw.SF},
	} {
		group := ByCollection(Suite())[tc.coll]
		var prevUnit, prevDRAM float64
		prevDRAM = 2
		for i, b := range group {
			e, err := silicon.Simulate(dev, b.Kernel, cfg)
			if err != nil {
				t.Fatal(err)
			}
			u := e.Utilization[tc.unit]
			d := e.Utilization[hw.DRAM]
			if i > 0 {
				if u < prevUnit-1e-9 {
					t.Errorf("%s[%d] (%s): unit utilization decreased (%.3f -> %.3f)",
						tc.coll, i, b.Kernel.Name, prevUnit, u)
				}
				if d > prevDRAM+1e-9 {
					t.Errorf("%s[%d] (%s): DRAM utilization increased (%.3f -> %.3f)",
						tc.coll, i, b.Kernel.Name, prevDRAM, d)
				}
			}
			prevUnit, prevDRAM = u, d
		}
		// The gradient must span a meaningful range.
		first, _ := silicon.Simulate(dev, group[0].Kernel, cfg)
		last, _ := silicon.Simulate(dev, group[len(group)-1].Kernel, cfg)
		if last.Utilization[tc.unit]-first.Utilization[tc.unit] < 0.3 {
			t.Errorf("%s: unit utilization range too narrow (%.2f -> %.2f)",
				tc.coll, first.Utilization[tc.unit], last.Utilization[tc.unit])
		}
	}
}

// TestCollectionsStressTheirComponent: every collection's most intense
// variant is bound by the component it claims to stress.
func TestCollectionsStressTheirComponent(t *testing.T) {
	dev := hw.GTXTitanX()
	cfg := dev.DefaultConfig()
	targets := map[Collection]hw.Component{
		CollInt: hw.Int, CollSP: hw.SP, CollDP: hw.DP, CollSF: hw.SF,
		CollL2: hw.L2, CollShared: hw.Shared,
	}
	groups := ByCollection(Suite())
	for coll, target := range targets {
		// Find the variant with the highest target utilization; it must be
		// bound by the component the collection claims to stress.
		var bestExec *silicon.Execution
		for _, b := range groups[coll] {
			e, err := silicon.Simulate(dev, b.Kernel, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if bestExec == nil || e.Utilization[target] > bestExec.Utilization[target] {
				bestExec = e
			}
		}
		bound := target
		for _, c := range hw.Components {
			if bestExec.Utilization[c] > bestExec.Utilization[bound] {
				bound = c
			}
		}
		if bound != target {
			t.Errorf("%s: most intense variant bound by %s, want %s (U=%v)",
				coll, bound, target, bestExec.Utilization)
		}
	}
	// The DRAM collection's first (lowest-intensity) variant is DRAM-bound.
	e, err := silicon.Simulate(dev, groups[CollDRAM][0].Kernel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range hw.Components {
		if c != hw.DRAM && e.Utilization[c] > e.Utilization[hw.DRAM] {
			t.Errorf("DRAM[0] bound by %s (U=%v)", c, e.Utilization)
		}
	}
}

// TestIdleBenchmarkDoesNothing: the Idle entry must have zero utilization.
func TestIdleBenchmarkDoesNothing(t *testing.T) {
	dev := hw.GTXTitanX()
	groups := ByCollection(Suite())
	idle := groups[CollIdle][0]
	e, err := silicon.Simulate(dev, idle.Kernel, dev.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for c, u := range e.Utilization {
		if u != 0 {
			t.Errorf("idle benchmark has U(%s) = %g", c, u)
		}
	}
}

// TestSuiteRunsEverywhere: every benchmark simulates without error at the
// extreme configurations of every device.
func TestSuiteRunsEverywhere(t *testing.T) {
	for _, dev := range hw.AllDevices() {
		extremes := []hw.Config{
			{CoreMHz: dev.CoreFreqs[0], MemMHz: dev.MemFreqs[0]},
			{CoreMHz: dev.CoreFreqs[len(dev.CoreFreqs)-1], MemMHz: dev.MemFreqs[len(dev.MemFreqs)-1]},
		}
		for _, b := range Suite() {
			for _, cfg := range extremes {
				if _, err := silicon.Simulate(dev, b.Kernel, cfg); err != nil {
					t.Fatalf("%s on %s at %v: %v", b.Kernel.Name, dev.Name, cfg, err)
				}
			}
		}
	}
}

func TestSourcesRender(t *testing.T) {
	for _, b := range Suite() {
		src := b.Source()
		if src == "" {
			t.Fatalf("%s: empty source", b.Kernel.Name)
		}
		switch b.Collection {
		case CollInt:
			if !strings.Contains(src, "int r0, r1, r2, r3") {
				t.Errorf("%s: wrong DATA_TYPE in source", b.Kernel.Name)
			}
		case CollDP:
			if !strings.Contains(src, "double r0") {
				t.Errorf("%s: wrong DATA_TYPE in source", b.Kernel.Name)
			}
		case CollSF:
			if !strings.Contains(src, "logf") || !strings.Contains(src, "cosf") {
				t.Errorf("%s: SF source missing transcendentals", b.Kernel.Name)
			}
		case CollShared:
			if !strings.Contains(src, "__shared__") {
				t.Errorf("%s: shared source missing __shared__", b.Kernel.Name)
			}
		}
	}
	full := RenderSources()
	for _, frag := range []string{"fma.rn.f32", "ub_idle", "__shared__", "BA1:"} {
		if !strings.Contains(full, frag) {
			t.Errorf("rendered sources missing %q", frag)
		}
	}
}

func TestIterOfParsesLoopCounts(t *testing.T) {
	cases := map[string]int{
		"ub_int_n2048":  2048,
		"ub_sp_n1":      1,
		"ub_l2_v7":      7,
		"ub_shared_v10": 10,
	}
	for name, want := range cases {
		if got := iterOf(name); got != want {
			t.Errorf("iterOf(%q) = %d, want %d", name, got, want)
		}
	}
}

// ByCollection groups the suite by collection, preserving order.
func ByCollection(suite []Benchmark) map[Collection][]Benchmark {
	out := make(map[Collection][]Benchmark)
	for _, b := range suite {
		out[b.Collection] = append(out[b.Collection], b)
	}
	return out
}
