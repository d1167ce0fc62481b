package governor

import (
	"context"
	"sync"
	"testing"

	"gpupower/internal/core"
	"gpupower/internal/hw"
	"gpupower/internal/kernels"
	"gpupower/internal/profiler"
	"gpupower/internal/sim"
	"gpupower/internal/suites"
)

var (
	rigOnce sync.Once
	rigProf *profiler.Profiler
	rigMod  *core.Model
	rigErr  error
)

// rig fits one shared GTX Titan X model for all governor tests.
func rig(t *testing.T) (*profiler.Profiler, *core.Model) {
	t.Helper()
	rigOnce.Do(func() {
		ctx := context.Background()
		b, err := sim.Open("GTX Titan X", 42)
		if err != nil {
			rigErr = err
			return
		}
		rigProf, rigErr = profiler.New(b)
		if rigErr != nil {
			return
		}
		var d *core.Dataset
		d, rigErr = core.BuildDataset(ctx, rigProf)
		if rigErr != nil {
			return
		}
		rigMod, rigErr = core.Estimate(ctx, d, nil)
	})
	if rigErr != nil {
		t.Fatal(rigErr)
	}
	return rigProf, rigMod
}

func app(t *testing.T, short string) *kernels.App {
	t.Helper()
	a, err := suites.ByShort(short)
	if err != nil {
		t.Fatal(err)
	}
	return a.App
}

func TestNewValidation(t *testing.T) {
	p, m := rig(t)
	if _, err := New(nil, m, MinEnergy); err == nil {
		t.Fatal("nil profiler accepted")
	}
	if _, err := New(p, nil, MinEnergy); err == nil {
		t.Fatal("nil model accepted")
	}
	other := *m
	other.DeviceName = "Tesla K40c"
	if _, err := New(p, &other, MinEnergy); err == nil {
		t.Fatal("device mismatch accepted")
	}
}

func TestGovernorSavesEnergyOnMemoryBoundApp(t *testing.T) {
	p, m := rig(t)
	g, err := New(p, m, MinEnergy)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.RunApp(context.Background(), app(t, "LBM"), 20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EnergySavingsPercent() <= 2 {
		t.Fatalf("min-energy governor saved only %.1f%% on a memory-bound app",
			rep.EnergySavingsPercent())
	}
	// The decision for a DRAM-bound kernel must lower the core clock.
	cfg, ok := g.Decision(app(t, "LBM").Kernels[0].Name)
	if !ok {
		t.Fatal("no cached decision")
	}
	if cfg.CoreMHz >= m.Ref.CoreMHz {
		t.Fatalf("memory-bound kernel got core clock %g >= reference", cfg.CoreMHz)
	}
}

func TestGovernorProfilesOnlyFirstIteration(t *testing.T) {
	p, m := rig(t)
	g, err := New(p, m, MinEnergy)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.RunApp(context.Background(), app(t, "CUTCP"), 5)
	if err != nil {
		t.Fatal(err)
	}
	profiling := 0
	for _, rec := range rep.Records {
		if rec.Profiling {
			profiling++
			if rec.Iteration != 1 {
				t.Fatalf("profiling happened at iteration %d", rec.Iteration)
			}
			if rec.Config != m.Ref {
				t.Fatal("profiling iteration not at the reference configuration")
			}
		}
	}
	if profiling != 1 {
		t.Fatalf("%d profiling launches for a single-kernel app, want 1", profiling)
	}
	// All subsequent iterations use one cached decision.
	var chosen hw.Config
	for _, rec := range rep.Records[1:] {
		if chosen == (hw.Config{}) {
			chosen = rec.Config
		}
		if rec.Config != chosen {
			t.Fatal("decision not stable across iterations")
		}
	}
}

func TestGovernorMultiKernelApp(t *testing.T) {
	p, m := rig(t)
	g, err := New(p, m, MinEnergy)
	if err != nil {
		t.Fatal(err)
	}
	km := app(t, "K-M") // two kernels
	rep, err := g.RunApp(context.Background(), km, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 2*4 {
		t.Fatalf("record count = %d, want 8", len(rep.Records))
	}
	for _, k := range km.Kernels {
		if _, ok := g.Decision(k.Name); !ok {
			t.Fatalf("kernel %s has no decision", k.Name)
		}
		if _, ok := g.Utilization(k.Name); !ok {
			t.Fatalf("kernel %s has no cached utilization", k.Name)
		}
	}
}

func TestMaxPerfUnderCap(t *testing.T) {
	p, m := rig(t)
	g, err := New(p, m, MaxPerfUnderCap)
	if err != nil {
		t.Fatal(err)
	}
	g.PowerCap = 120 // well below BlackScholes' ~189 W at the reference

	wl := app(t, "BLCKSC")
	rep, err := g.RunApp(context.Background(), wl, 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := g.Decision(wl.Kernels[0].Name)
	u, _ := g.Utilization(wl.Kernels[0].Name)
	pred, err := m.Predict(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pred > 120 {
		t.Fatalf("capped decision predicts %.1f W > 120 W cap", pred)
	}
	// Under a cap the governed run must consume less energy per unit time —
	// and, being capped, it is slower than the unconstrained baseline.
	if rep.SlowdownPercent() < 0 {
		t.Fatalf("capped run faster than baseline (%.1f%%)", rep.SlowdownPercent())
	}
	// The chosen point should be the *fastest* admissible one: every faster
	// configuration must violate the cap.
	for _, cand := range p.HW().AllConfigs() {
		rt := core.EstimateRelativeTime(u, m.Ref, cand)
		chosenRT := core.EstimateRelativeTime(u, m.Ref, cfg)
		if rt < chosenRT-1e-9 {
			pw, err := m.Predict(u, cand)
			if err != nil {
				t.Fatal(err)
			}
			if pw <= 120 {
				t.Fatalf("faster admissible config %v (%.1f W) exists", cand, pw)
			}
		}
	}
}

func TestImpossibleCap(t *testing.T) {
	p, m := rig(t)
	g, err := New(p, m, MaxPerfUnderCap)
	if err != nil {
		t.Fatal(err)
	}
	g.PowerCap = 10 // below idle power: nothing is admissible
	if _, err := g.RunApp(context.Background(), app(t, "BLCKSC"), 2); err == nil {
		t.Fatal("impossible cap accepted")
	}
}

func TestRunAppValidation(t *testing.T) {
	p, m := rig(t)
	g, err := New(p, m, MinEnergy)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.RunApp(context.Background(), app(t, "LBM"), 0); err == nil {
		t.Fatal("zero iterations accepted")
	}
	if _, err := g.RunApp(context.Background(), &kernels.App{Name: "empty"}, 1); err == nil {
		t.Fatal("invalid app accepted")
	}
}

func TestPolicyString(t *testing.T) {
	for _, p := range []Policy{MinEnergy, MinEDP, MaxPerfUnderCap, Policy(9)} {
		if p.String() == "" {
			t.Fatal("empty policy name")
		}
	}
}

func TestMinEDPRespectsPerformanceMore(t *testing.T) {
	p, m := rig(t)
	gE, err := New(p, m, MinEnergy)
	if err != nil {
		t.Fatal(err)
	}
	gD, err := New(p, m, MinEDP)
	if err != nil {
		t.Fatal(err)
	}
	wl := app(t, "CUTCP")
	if _, err := gE.RunApp(context.Background(), wl, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := gD.RunApp(context.Background(), wl, 2); err != nil {
		t.Fatal(err)
	}
	u, _ := gE.Utilization(wl.Kernels[0].Name)
	cfgE, _ := gE.Decision(wl.Kernels[0].Name)
	cfgD, _ := gD.Decision(wl.Kernels[0].Name)
	rtE := core.EstimateRelativeTime(u, m.Ref, cfgE)
	rtD := core.EstimateRelativeTime(u, m.Ref, cfgD)
	if rtD > rtE+1e-9 {
		t.Fatalf("min-EDP decision slower (%.2fx) than min-energy (%.2fx)", rtD, rtE)
	}
}

// scanDecide is the per-point decision oracle: Model.Predict and
// EstimateRelativeTime at every ladder configuration, the lowest policy
// score at or under the cap, the first in ladder order on ties.
func scanDecide(t *testing.T, m *core.Model, dev *hw.Device, policy Policy, powerCap float64, u core.Utilization) hw.Config {
	t.Helper()
	best, bestScore, found := hw.Config{}, 0.0, false
	for _, cfg := range dev.AllConfigs() {
		p, err := m.Predict(u, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if p > powerCap {
			continue
		}
		score, err := policy.Score(p, core.EstimateRelativeTime(u, m.Ref, cfg))
		if err != nil {
			t.Fatal(err)
		}
		if !found || score < bestScore {
			best, bestScore, found = cfg, score, true
		}
	}
	if !found {
		t.Fatalf("%v: no configuration under %g W", policy, powerCap)
	}
	return best
}

// TestDecideMatchesPointScan pins Decide to the per-point oracle for every
// policy, on the fitted model and on a model whose β and ω are all zero.
// The latter predicts 0 W everywhere, the reference included; the
// governor's scores never divide by the reference power, so the surface
// serves it like any other model.
func TestDecideMatchesPointScan(t *testing.T) {
	_, fitted := rig(t)
	dev := hw.GTXTitanX()
	zero := *fitted
	zero.Beta = [4]float64{}
	zero.OmegaCore = map[hw.Component]float64{}
	for _, c := range core.CoreOmegaOrder {
		zero.OmegaCore[c] = 0
	}
	zero.OmegaMem = 0
	u := core.Utilization{hw.SP: 0.6, hw.Int: 0.2, hw.DRAM: 0.3}
	for _, m := range []*core.Model{fitted, &zero} {
		for _, policy := range []Policy{MinEnergy, MinEDP, MaxPerfUnderCap} {
			got, err := Decide(context.Background(), m, dev, policy, 0, u)
			if err != nil {
				t.Fatal(err)
			}
			if want := scanDecide(t, m, dev, policy, dev.TDP, u); got != want {
				t.Errorf("β0 %g, %v: Decide chose %v, the per-point scan %v", m.Beta[0], policy, got, want)
			}
		}
	}
}
