package gpupower

// In-package regression tests for the deterministic DVFS selection order
// (the exported behaviour is covered by dvfs_test.go; these exercise the
// tie-breaking total order directly with crafted operating points, through
// the bestFeasible oracle FindBestConfig is pinned to).

import (
	"math/rand"
	"testing"
)

// bestFeasible is the selection oracle: the minimum of the betterPoint
// total order among TDP-feasible points, by a single ordered scan over
// materialized operating points. Because betterPoint is a strict total
// order on distinct configurations, the result does not depend on the
// input order.
func bestFeasible(pts []OperatingPoint, tdp float64, obj Objective) (OperatingPoint, bool) {
	best, found := OperatingPoint{}, false
	for _, pt := range pts {
		if pt.PowerW > tdp {
			continue
		}
		if !found || betterPoint(pt, best, obj) {
			best, found = pt, true
		}
	}
	return best, found
}

// TestFindBestConfigMatchesBestFeasible pins FindBestConfig's scan of the
// memoized surface to the oracle over EvaluateOperatingPoints, for every
// objective and every validation workload on the golden GTX Titan X fit.
func TestFindBestConfigMatchesBestFeasible(t *testing.T) {
	m, err := LoadModel("testdata/gtx-titan-x-fit-model.json")
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := Open(GTXTitanX, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range Workloads() {
		prof, err := gpu.ProfileForModel(wl.App, m)
		if err != nil {
			t.Fatal(err)
		}
		pts, err := EvaluateOperatingPoints(m, gpu.Device(), prof)
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range []Objective{MinEnergy, MinEDP, MinPowerUnderTDP} {
			want, ok := bestFeasible(pts, gpu.TDP(), obj)
			if !ok {
				t.Fatalf("%s %v: no TDP-feasible point", wl.Short, obj)
			}
			got, err := FindBestConfig(m, gpu.Device(), prof, obj)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s %v: FindBestConfig %+v, oracle %+v", wl.Short, obj, got, want)
			}
		}
	}
}

// tiedPoints returns two operating points with identical objective values
// on every objective but different configurations.
func tiedPoints() (OperatingPoint, OperatingPoint) {
	a := OperatingPoint{
		Config:    Config{CoreMHz: 1404, MemMHz: 5705},
		PowerW:    180,
		RelTime:   1.10,
		RelEnergy: 0.90,
		RelEDP:    0.99,
	}
	b := OperatingPoint{
		Config:    Config{CoreMHz: 1202, MemMHz: 5705},
		PowerW:    180,
		RelTime:   1.10,
		RelEnergy: 0.90,
		RelEDP:    0.99,
	}
	return a, b
}

// TestBestFeasibleTieIsDeterministic is the regression test for the
// unstable-sort bug: with two operating points tied on the objective, the
// old sort.Slice selection could return either one depending on the
// (randomized) sort order. The fixed selection must return the lower core
// clock regardless of input permutation.
func TestBestFeasibleTieIsDeterministic(t *testing.T) {
	hi, lo := tiedPoints()
	for _, obj := range []Objective{MinEnergy, MinEDP, MinPowerUnderTDP} {
		for _, pts := range [][]OperatingPoint{{hi, lo}, {lo, hi}} {
			best, ok := bestFeasible(pts, 250, obj)
			if !ok {
				t.Fatalf("%v: no feasible point", obj)
			}
			if best.Config != lo.Config {
				t.Fatalf("%v with order %v: picked %v, want the lower core clock %v",
					obj, []Config{pts[0].Config, pts[1].Config}, best.Config, lo.Config)
			}
		}
	}
}

func TestBestFeasibleMemTieBreak(t *testing.T) {
	a, b := tiedPoints()
	b.Config = Config{CoreMHz: a.Config.CoreMHz, MemMHz: a.Config.MemMHz - 1000}
	best, ok := bestFeasible([]OperatingPoint{a, b}, 250, MinEnergy)
	if !ok || best.Config != b.Config {
		t.Fatalf("picked %v, want lower memory clock %v", best.Config, b.Config)
	}
}

func TestBestFeasibleRespectsTDP(t *testing.T) {
	a, b := tiedPoints()
	a.PowerW, a.RelEnergy = 300, 0.5 // better objective but infeasible
	best, ok := bestFeasible([]OperatingPoint{a, b}, 250, MinEnergy)
	if !ok || best.Config != b.Config {
		t.Fatalf("TDP-infeasible point selected: %+v", best)
	}
	if _, ok := bestFeasible([]OperatingPoint{a}, 250, MinEnergy); ok {
		t.Fatal("infeasible-only input reported a best point")
	}
}

// TestBestFeasiblePermutationInvariance: shuffling the candidate list never
// changes the selection (the property the unstable sort violated).
func TestBestFeasiblePermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]OperatingPoint, 0, 24)
	for c := 0; c < 6; c++ {
		for m := 0; m < 4; m++ {
			pts = append(pts, OperatingPoint{
				Config:    Config{CoreMHz: 600 + 100*float64(c), MemMHz: 810 + 1000*float64(m)},
				PowerW:    100 + float64((c*m)%3), // many exact power ties
				RelTime:   1,
				RelEnergy: 1 + float64((c+m)%2)*0.125, // exact energy ties
				RelEDP:    1,
			})
		}
	}
	for _, obj := range []Objective{MinEnergy, MinEDP, MinPowerUnderTDP} {
		want, ok := bestFeasible(pts, 1e9, obj)
		if !ok {
			t.Fatal("no feasible point")
		}
		for trial := 0; trial < 50; trial++ {
			shuffled := append([]OperatingPoint(nil), pts...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			got, _ := bestFeasible(shuffled, 1e9, obj)
			if got.Config != want.Config {
				t.Fatalf("%v: permutation changed the selection: %v vs %v", obj, got.Config, want.Config)
			}
		}
	}
}

func TestBetterPointIsStrictTotalOrderOnDistinctConfigs(t *testing.T) {
	a, b := tiedPoints()
	if betterPoint(a, a, MinEnergy) {
		t.Fatal("irreflexivity violated")
	}
	if betterPoint(a, b, MinEnergy) == betterPoint(b, a, MinEnergy) {
		t.Fatal("antisymmetry violated for tied distinct configs")
	}
}
