package autotune

import (
	"context"
	"math"
	"sync"
	"testing"

	"gpupower/internal/core"
	"gpupower/internal/hw"
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

func tuner(t *testing.T) *Tuner {
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
	tn, err := New(rigProf, rigMod)
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

func TestNewValidation(t *testing.T) {
	tn := tuner(t)
	if _, err := New(nil, rigMod); err == nil {
		t.Fatal("nil profiler accepted")
	}
	if _, err := New(rigProf, nil); err == nil {
		t.Fatal("nil model accepted")
	}
	other := *rigMod
	other.DeviceName = "Tesla K40c"
	if _, err := New(rigProf, &other); err == nil {
		t.Fatal("device mismatch accepted")
	}
	_ = tn
}

func app(t *testing.T, short string) *suites.Application {
	t.Helper()
	a, err := suites.ByShort(short)
	if err != nil {
		t.Fatal(err)
	}
	return &a
}

func TestTuneRespectsBudgetAndSavesEnergy(t *testing.T) {
	tn := tuner(t)
	km := app(t, "K-M") // two kernels
	for _, slack := range []float64{0.05, 0.15, 0.30} {
		plan, err := tn.Tune(context.Background(), km.App, slack)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Choice) != len(km.App.Kernels) {
			t.Fatalf("slack %.2f: %d choices for %d kernels", slack, len(plan.Choice), len(km.App.Kernels))
		}
		if plan.RelTime > 1+slack+1e-9 {
			t.Errorf("slack %.2f: plan time x%.3f exceeds budget", slack, plan.RelTime)
		}
		if plan.RelEnergy > 1+1e-9 {
			t.Errorf("slack %.2f: plan wastes energy (x%.3f)", slack, plan.RelEnergy)
		}
	}
}

func TestMoreSlackNeverHurts(t *testing.T) {
	tn := tuner(t)
	a := app(t, "SRAD_1")
	tight, err := tn.Tune(context.Background(), a.App, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := tn.Tune(context.Background(), a.App, 0.50)
	if err != nil {
		t.Fatal(err)
	}
	// Each Tune call re-profiles the kernels, so the frontiers carry fresh
	// counter read noise (~0.3%); compare with a matching tolerance.
	if loose.RelEnergy > tight.RelEnergy+0.01 {
		t.Fatalf("more slack produced worse energy: %.3f vs %.3f", loose.RelEnergy, tight.RelEnergy)
	}
}

func TestTuneMemoryBoundPrefersLowCore(t *testing.T) {
	tn := tuner(t)
	a := app(t, "LBM")
	plan, err := tn.Tune(context.Background(), a.App, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Choice[0].Config.CoreMHz >= rigMod.Ref.CoreMHz {
		t.Errorf("memory-bound kernel assigned core clock %g >= reference", plan.Choice[0].Config.CoreMHz)
	}
	if plan.RelEnergy > 0.97 {
		t.Errorf("memory-bound app should save energy (got x%.3f)", plan.RelEnergy)
	}
}

func TestTuneValidation(t *testing.T) {
	tn := tuner(t)
	bad := &struct{}{}
	_ = bad
	if _, err := tn.Tune(context.Background(), nil, 0.1); err == nil {
		t.Fatal("nil app accepted")
	}
}

func TestGreedyMatchesExactOnSmallProblem(t *testing.T) {
	// Build a tiny synthetic frontier problem where both solvers apply.
	frontiers := [][]Candidate{
		{
			{RelTime: 1.0, RelEnergy: 1.0},
			{RelTime: 1.2, RelEnergy: 0.8},
			{RelTime: 1.5, RelEnergy: 0.7},
		},
		{
			{RelTime: 1.0, RelEnergy: 1.0},
			{RelTime: 1.3, RelEnergy: 0.6},
		},
	}
	refT := []float64{1, 1}
	refP := []float64{100, 100}
	budget := 2.5
	exact, err := exactSearch(frontiers, refT, refP, budget)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := greedySearch(frontiers, refT, refP, budget)
	if err != nil {
		t.Fatal(err)
	}
	energy := func(choice []Candidate) float64 {
		var e float64
		for i, c := range choice {
			e += refT[i] * refP[i] * c.RelEnergy
		}
		return e
	}
	if math.Abs(energy(exact)-energy(greedy)) > 1e-9 {
		t.Fatalf("greedy %.1f != exact %.1f on a greedy-friendly instance",
			energy(greedy), energy(exact))
	}
	// Budget feasibility.
	var tt float64
	for i, c := range exact {
		tt += refT[i] * c.RelTime
	}
	if tt > budget {
		t.Fatal("exact solution violates the budget")
	}
}

func TestExactSearchInfeasible(t *testing.T) {
	frontiers := [][]Candidate{{{RelTime: 2, RelEnergy: 1}}}
	if _, err := exactSearch(frontiers, []float64{1}, []float64{100}, 1.0); err == nil {
		t.Fatal("infeasible budget accepted")
	}
	if _, err := greedySearch(frontiers, []float64{1}, []float64{100}, 1.0); err == nil {
		t.Fatal("greedy accepted infeasible budget")
	}
}

// TestTuneZeroReferencePower: relative energy divides by the reference
// power, so a model that predicts 0 W there (all β and ω zero) cannot be
// tuned, and Tune names the kernel.
func TestTuneZeroReferencePower(t *testing.T) {
	tuner(t)
	zero := *rigMod
	zero.Beta = [4]float64{}
	zero.OmegaCore = map[hw.Component]float64{}
	for _, c := range core.CoreOmegaOrder {
		zero.OmegaCore[c] = 0
	}
	zero.OmegaMem = 0
	tn, err := New(rigProf, &zero)
	if err != nil {
		t.Fatal(err)
	}
	a := app(t, "LBM")
	_, err = tn.Tune(context.Background(), a.App, 0.1)
	want := "autotune: non-positive reference power for kernel " + a.App.Kernels[0].Name
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
}
