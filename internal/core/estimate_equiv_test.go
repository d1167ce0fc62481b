package core

import (
	"context"
	"math"
	"testing"

	"gpupower/internal/hw"
	"gpupower/internal/linalg"
	"gpupower/internal/stats"
)

// referenceSolveX is the historical step-1/step-3 path: build every design
// row with designRowInto, copy it into a fresh matrix, and solve with the
// allocating NNLS entry point. The incremental workspace path must match it
// bitwise — same rows, same right-hand side, same active-set trajectory.
func referenceSolveX(d *Dataset, volt *VoltageTable, configIdx []int) ([]float64, error) {
	nb := len(d.Benchmarks)
	rows := nb * len(configIdx)
	a := linalg.NewMatrix(rows, nParams)
	b := make([]float64, rows)
	row := make([]float64, nParams)
	for k, fi := range configIdx {
		cfg := d.Configs[fi]
		vc, vm, err := volt.At(cfg)
		if err != nil {
			return nil, err
		}
		r := k * nb
		for bi, bench := range d.Benchmarks {
			designRowInto(row, bench.Util, cfg, vc, vm)
			a.SetRow(r, row)
			b[r] = d.Power[bi][fi]
			r++
		}
	}
	return linalg.NNLS(a, b)
}

// referenceTrainingSSE is the historical SSE evaluation: a designRowInto
// row per (config, benchmark) folded against x in index order, partials
// folded in configuration order.
func referenceTrainingSSE(d *Dataset, volt *VoltageTable, x []float64) (float64, error) {
	row := make([]float64, nParams)
	var sse float64
	for fi, cfg := range d.Configs {
		vc, vm, err := volt.At(cfg)
		if err != nil {
			return 0, err
		}
		var s float64
		for bi, bench := range d.Benchmarks {
			designRowInto(row, bench.Util, cfg, vc, vm)
			pred := 0.0
			for j, v := range row {
				pred += v * x[j]
			}
			diff := d.Power[bi][fi] - pred
			s += diff * diff
		}
		_ = fi
		sse += s
	}
	return sse, nil
}

// perturbedVoltages builds a deterministic non-trivial voltage table so the
// equivalence check exercises the incremental rescaling away from V̄ ≡ 1.
func perturbedVoltages(d *Dataset, seed uint64) *VoltageTable {
	rng := stats.NewRNG(seed)
	volt := NewVoltageTable(d.Device.CoreFreqs, d.Device.MemFreqs)
	for mi := range volt.VCore {
		for ci := range volt.VCore[mi] {
			volt.VCore[mi][ci] = 0.8 + 0.4*rng.Float64()
			volt.VMem[mi][ci] = 0.8 + 0.4*rng.Float64()
		}
	}
	return volt
}

// TestIncrementalAssemblyBitwiseEquivalent pins the tentpole invariant: the
// incremental design-matrix assembly (base blocks rescaled by the per-config
// scalars vc, vc²·fc, vm, vm²·fm) solves to bitwise-identical parameter
// vectors as the historical row-by-row designRowInto path, including when
// the workspace is reused across successive solves with different voltage
// tables and different configuration subsets.
func TestIncrementalAssemblyBitwiseEquivalent(t *testing.T) {
	d := syntheticDataset(defaultSyntheticTruth(), 24, 2.0, 7)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	ws := newEstimatorWorkspace(d)

	init, err := initialConfigs(d)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, len(d.Configs))
	for i := range all {
		all[i] = i
	}

	cases := []struct {
		name string
		volt *VoltageTable
		idx  []int
	}{
		{"unit-voltages/init-subset", NewVoltageTable(d.Device.CoreFreqs, d.Device.MemFreqs), init},
		{"perturbed/all-configs", perturbedVoltages(d, 3), all},
		{"perturbed2/all-configs", perturbedVoltages(d, 11), all},
		{"perturbed2/init-subset", perturbedVoltages(d, 11), init},
	}
	x := make([]float64, nParams)
	for _, tc := range cases {
		want, err := referenceSolveX(d, tc.volt, tc.idx)
		if err != nil {
			t.Fatalf("%s: referenceSolveX: %v", tc.name, err)
		}
		if err := ws.solveXInto(x, tc.volt, tc.idx); err != nil {
			t.Fatalf("%s: solveXInto: %v", tc.name, err)
		}
		for j := range want {
			if math.Float64bits(x[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s: x[%d] = %x, want %x (not bitwise equal)", tc.name, j, x[j], want[j])
			}
		}

		wantSSE, err := referenceTrainingSSE(d, tc.volt, x)
		if err != nil {
			t.Fatalf("%s: referenceTrainingSSE: %v", tc.name, err)
		}
		gotSSE, err := ws.trainingSSE(tc.volt, x)
		if err != nil {
			t.Fatalf("%s: trainingSSE: %v", tc.name, err)
		}
		if math.Float64bits(gotSSE) != math.Float64bits(wantSSE) {
			t.Fatalf("%s: SSE = %x, want %x (not bitwise equal)", tc.name, gotSSE, wantSSE)
		}
	}
}

// TestSolveVoltagesBasePrecomputes pins the flattened A/B precomputes of
// step 2 to the historical map-walking accumulation.
func TestSolveVoltagesBasePrecomputes(t *testing.T) {
	d := syntheticDataset(defaultSyntheticTruth(), 16, 1.0, 5)
	ws := newEstimatorWorkspace(d)
	rng := stats.NewRNG(9)
	x := make([]float64, nParams)
	for j := range x {
		x[j] = rng.Float64()
	}
	// Run one step-2 solve to fill ws.A/ws.B.
	volt := NewVoltageTable(d.Device.CoreFreqs, d.Device.MemFreqs)
	opts := DefaultEstimatorOptions()
	if err := ws.solveVoltages(x, volt, opts); err != nil {
		t.Fatal(err)
	}
	for bi, bench := range d.Benchmarks {
		wantA := x[1]
		for i, c := range CoreOmegaOrder {
			wantA += x[4+i] * bench.Util[c]
		}
		wantB := x[3] + x[10]*bench.Util[hw.DRAM]
		if math.Float64bits(ws.A[bi]) != math.Float64bits(wantA) {
			t.Fatalf("A[%d] = %x, want %x", bi, ws.A[bi], wantA)
		}
		if math.Float64bits(ws.B[bi]) != math.Float64bits(wantB) {
			t.Fatalf("B[%d] = %x, want %x", bi, ws.B[bi], wantB)
		}
	}
}

// TestSolveXIntoSubsetAllocFree pins the step-1 subset path: solving over
// initialConfigs (rows != full design height) must reuse the cached
// subset-shaped buffers after the first call instead of allocating a fresh
// matrix and right-hand side per solve.
func TestSolveXIntoSubsetAllocFree(t *testing.T) {
	d := syntheticDataset(defaultSyntheticTruth(), 24, 2.0, 7)
	ws := newEstimatorWorkspace(d)
	init, err := initialConfigs(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(init) == len(d.Configs) {
		t.Fatalf("initialConfigs covers the full ladder; subset path not exercised")
	}
	volt := NewVoltageTable(d.Device.CoreFreqs, d.Device.MemFreqs)
	x := make([]float64, nParams)
	// Warm once: the first subset solve sizes ws.subA/ws.subB.
	if err := ws.solveXInto(x, volt, init); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := ws.solveXInto(x, volt, init); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("subset solveXInto allocates %.1f/op in steady state, want 0", allocs)
	}
}

// TestProjectMonotonicAllocFree pins the step-2 monotone projection at
// zero allocations on held scratch, with every row and column of both
// voltage ladders violating monotonicity so PAVA pools on each call.
func TestProjectMonotonicAllocFree(t *testing.T) {
	d := syntheticDataset(defaultSyntheticTruth(), 2, 0, 1)
	volt := NewVoltageTable(d.Device.CoreFreqs, d.Device.MemFreqs)
	if len(volt.MemFreqs) < 2 || len(volt.CoreFreqs) < 2 {
		t.Fatalf("ladder %d×%d too small to pool both domains", len(volt.CoreFreqs), len(volt.MemFreqs))
	}
	descending := func() {
		for mi := range volt.VCore {
			for ci := range volt.VCore[mi] {
				volt.VCore[mi][ci] = 2 - 0.01*float64(ci+mi)
				volt.VMem[mi][ci] = 2 - 0.01*float64(ci+mi)
			}
		}
	}
	var p monotonicProjector
	descending()
	if err := p.projectMonotonic(volt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		descending()
		if err := p.projectMonotonic(volt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("projectMonotonic allocates %.1f/op on held scratch, want 0", allocs)
	}
}

// TestEstimateMatchesReferenceEngine cross-checks the production engine
// against the pre-restructuring engine (estimate_reference_test.go) on a
// synthetic dataset. The engines order their floating-point work
// differently (row-by-row vs incremental assembly, compiled vs direct
// step-2 objectives), so agreement is tolerance-based: measured divergence
// on the real device rigs is ≤1e-5 relative on parameters and ≤6e-6 on
// voltages; the bounds here leave two orders of magnitude of margin.
func TestEstimateMatchesReferenceEngine(t *testing.T) {
	d := syntheticDataset(defaultSyntheticTruth(), 24, 2.0, 7)
	ref, err := estimateReference(d)
	if err != nil {
		t.Fatalf("estimateReference: %v", err)
	}
	got, err := Estimate(context.Background(), d, nil)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}

	if got.Converged != ref.Converged {
		t.Fatalf("Converged = %v, reference %v (after %d vs %d iterations)",
			got.Converged, ref.Converged, got.Iterations, ref.Iterations)
	}

	var scale float64
	for _, b := range ref.Beta {
		scale = math.Max(scale, math.Abs(b))
	}
	for _, w := range ref.OmegaCore {
		scale = math.Max(scale, math.Abs(w))
	}
	scale = math.Max(scale, math.Abs(ref.OmegaMem))

	for i := range ref.Beta {
		if diff := math.Abs(got.Beta[i] - ref.Beta[i]); diff > 1e-3*scale {
			t.Errorf("β%d = %v, reference %v (diff %g)", i, got.Beta[i], ref.Beta[i], diff)
		}
	}
	for c, w := range ref.OmegaCore {
		if diff := math.Abs(got.OmegaCore[c] - w); diff > 1e-3*scale {
			t.Errorf("ω_%s = %v, reference %v (diff %g)", c, got.OmegaCore[c], w, diff)
		}
	}
	if diff := math.Abs(got.OmegaMem - ref.OmegaMem); diff > 1e-3*scale {
		t.Errorf("ω_mem = %v, reference %v (diff %g)", got.OmegaMem, ref.OmegaMem, diff)
	}
	for mi := range ref.Voltages.VCore {
		for ci := range ref.Voltages.VCore[mi] {
			dc := math.Abs(got.Voltages.VCore[mi][ci] - ref.Voltages.VCore[mi][ci])
			dm := math.Abs(got.Voltages.VMem[mi][ci] - ref.Voltages.VMem[mi][ci])
			if dc > 1e-4 || dm > 1e-4 {
				t.Errorf("voltage (%d,%d): (%v, %v), reference (%v, %v)",
					mi, ci, got.Voltages.VCore[mi][ci], got.Voltages.VMem[mi][ci],
					ref.Voltages.VCore[mi][ci], ref.Voltages.VMem[mi][ci])
			}
		}
	}
}

// TestDesignRowIntoAllocFree is the allocation regression test for the
// per-row fill primitive shared by the reference path and external callers.
func TestDesignRowIntoAllocFree(t *testing.T) {
	d := syntheticDataset(defaultSyntheticTruth(), 2, 0, 1)
	u := d.Benchmarks[0].Util
	cfg := d.Ref
	dst := make([]float64, nParams)
	allocs := testing.AllocsPerRun(100, func() {
		designRowInto(dst, u, cfg, 1.05, 0.95)
	})
	if allocs != 0 {
		t.Fatalf("designRowInto allocates %.1f/op, want 0", allocs)
	}
}
