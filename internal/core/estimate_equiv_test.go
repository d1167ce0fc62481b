package core

import (
	"context"
	"math"
	"testing"

	"gpupower/internal/backend/trace"
	"gpupower/internal/hw"
	"gpupower/internal/linalg"
	"gpupower/internal/microbench"
	"gpupower/internal/profiler"
	"gpupower/internal/stats"
)

// referenceSolveX is the full-design oracle of steps 1 and 3: build every
// (benchmark, configuration) row with designRowInto and solve the
// nb·len(configIdx) × nParams system with the allocating NNLS entry point.
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

// referenceTrainingSSE is the full-design objective ‖A·x − b‖² over the
// given configurations: a designRowInto row per (configuration, benchmark)
// folded against x. Over every configuration it is the training SSE.
func referenceTrainingSSE(d *Dataset, volt *VoltageTable, configIdx []int, x []float64) (float64, error) {
	row := make([]float64, nParams)
	var sse float64
	for _, fi := range configIdx {
		cfg := d.Configs[fi]
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
		sse += s
	}
	return sse, nil
}

// perturbedVoltages builds a deterministic non-trivial voltage table so the
// equivalence check exercises the projection away from V̄ ≡ 1.
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

// k40cTraceDataset replays the committed Tesla K40c measurement trace
// into the training dataset its golden fit (testdata/k40c-fit-model.json)
// comes from.
func k40cTraceDataset(t *testing.T) *Dataset {
	t.Helper()
	r, err := trace.Open("../../testdata/k40c-fit.trace.gz")
	if err != nil {
		t.Fatal(err)
	}
	p, err := profiler.New(r)
	if err != nil {
		t.Fatal(err)
	}
	dev := p.HW()
	d, err := BuildDataset(context.Background(), p, microbench.Suite(), dev.DefaultConfig(), dev.AllConfigs())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// withinRel reports whether got is within tol of want, relative to |want|.
func withinRel(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

// TestIncrementalAssemblyBitwiseEquivalent pins steps 1 and 3 and the
// training SSE, which run on the projection R·M_c of each configuration's
// design block (estimatorWorkspace), to the full nb-rows-per-configuration
// design: referenceSolveX and referenceTrainingSSE are the oracles.
//
// For each dataset, voltage table and configuration subset it requires
//   - the projected NNLS solution, solved cold and warm-started from the
//     previous table's solution as step 3 is, to reach a full-design
//     objective within 1e-10 relative of the oracle solution's. Objectives
//     are compared, not coefficients: near-collinear columns make x
//     non-unique;
//   - the projected SSE within 1e-10 relative of the full design's, at the
//     oracle solution and at a random x.
//
// The datasets are a GTX Titan X-shaped synthetic one (83 benchmarks on
// the 16×4 ladder), one with fewer benchmarks than Φ has columns (padded
// to a square), one whose SF utilization is zero for every benchmark (a
// rank-deficient Φ) and the real K40c dataset replayed from its golden
// trace. The tables are V̄ ≡ 1, two random ones and the fit's own final
// table, where the NNLS stopping rule decides the static split. One
// workspace serves every dataset, so reuse across shapes is covered too.
func TestIncrementalAssemblyBitwiseEquivalent(t *testing.T) {
	const tol = 1e-10
	truth := defaultSyntheticTruth()
	zeroSF := syntheticDataset(truth, 24, 2.0, 9)
	for _, b := range zeroSF.Benchmarks {
		delete(b.Util, hw.SF)
	}
	datasets := []struct {
		name string
		d    *Dataset
	}{
		{"gtx-titan-x-shape", syntheticDataset(truth, 82, 2.0, 7)},
		{"fewer-benchmarks-than-features", syntheticDataset(truth, 4, 2.0, 5)},
		{"zero-utilization-column", zeroSF},
		{"k40c-trace", k40cTraceDataset(t)},
	}
	// Typical coefficient magnitudes, for random x near the data's scale.
	typical := [nParams]float64{40, 0.05, 20, 0.02, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05}
	rng := stats.NewRNG(13)
	var ws *estimatorWorkspace
	for _, ds := range datasets {
		d := ds.d
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: %v", ds.name, err)
		}
		if ws == nil {
			ws = newEstimatorWorkspace(d)
		} else {
			ws.reset(d)
		}
		fit, err := Estimate(context.Background(), d, nil)
		if err != nil {
			t.Fatalf("%s: Estimate: %v", ds.name, err)
		}
		init, err := initialConfigs(d)
		if err != nil {
			t.Fatal(err)
		}
		all := make([]int, len(d.Configs))
		var odd []int
		for i := range all {
			all[i] = i
			if i%2 == 1 {
				odd = append(odd, i)
			}
		}
		tables := []struct {
			name string
			volt *VoltageTable
		}{
			{"unit", NewVoltageTable(d.Device.CoreFreqs, d.Device.MemFreqs)},
			{"random3", perturbedVoltages(d, 3)},
			{"random11", perturbedVoltages(d, 11)},
			{"fitted", fit.Voltages},
		}
		for _, subset := range []struct {
			name string
			idx  []int
		}{{"init", init}, {"all", all}, {"odd", odd}} {
			warm := make([]float64, nParams)
			for _, tb := range tables {
				name := ds.name + "/" + subset.name + "/" + tb.name
				want, err := referenceSolveX(d, tb.volt, subset.idx)
				if err != nil {
					t.Fatalf("%s: referenceSolveX: %v", name, err)
				}
				wantObj, err := referenceTrainingSSE(d, tb.volt, subset.idx, want)
				if err != nil {
					t.Fatal(err)
				}
				cold := make([]float64, nParams)
				for _, run := range []struct {
					start string
					x     []float64
				}{{"cold", cold}, {"warm", warm}} {
					if err := ws.solveXInto(run.x, tb.volt, subset.idx); err != nil {
						t.Fatalf("%s: %s solveXInto: %v", name, run.start, err)
					}
					obj, err := referenceTrainingSSE(d, tb.volt, subset.idx, run.x)
					if err != nil {
						t.Fatal(err)
					}
					if !withinRel(obj, wantObj, tol) {
						t.Errorf("%s: %s solve's full-design objective %.17g, oracle's %.17g (rel %.3g)",
							name, run.start, obj, wantObj, (obj-wantObj)/wantObj)
					}
				}

				xr := make([]float64, nParams)
				for j := range xr {
					xr[j] = typical[j] * rng.Float64()
				}
				for _, x := range [][]float64{want, xr} {
					wantSSE, err := referenceTrainingSSE(d, tb.volt, all, x)
					if err != nil {
						t.Fatal(err)
					}
					got, err := ws.trainingSSE(tb.volt, x)
					if err != nil {
						t.Fatalf("%s: trainingSSE: %v", name, err)
					}
					if !withinRel(got, wantSSE, tol) {
						t.Errorf("%s: SSE %.17g, full design %.17g (rel %.3g) at x = %v",
							name, got, wantSSE, (got-wantSSE)/wantSSE, x)
					}
				}
			}
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
// initialConfigs (fewer rows than the full ladder's projection) must
// reshape the held design buffer rather than allocate a matrix and
// right-hand side per solve.
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

// TestEstimateWithWarmAllocsBounded pins the alternation's loop body at
// zero allocations: a warm EstimateWith on a reused FitWorkspace must
// allocate as often over 50 iterations as over 5. What it does allocate
// is per fit: the model, its voltage table and the previous-iteration
// snapshots. Tol and SSETol are zero, so both fits run to their caps.
func TestEstimateWithWarmAllocsBounded(t *testing.T) {
	d := syntheticDataset(defaultSyntheticTruth(), 82, 2.0, 7)
	fw := NewFitWorkspace()
	allocs := func(iters int) float64 {
		opts := DefaultEstimatorOptions()
		opts.MaxIterations = iters
		opts.Tol, opts.SSETol = 0, 0
		fit := func() {
			m, err := EstimateWith(context.Background(), d, opts, fw)
			if err != nil {
				t.Fatal(err)
			}
			if m.Iterations != iters {
				t.Fatalf("fit stopped after %d of %d iterations", m.Iterations, iters)
			}
		}
		fit()
		return testing.AllocsPerRun(3, fit)
	}
	if a5, a50 := allocs(5), allocs(50); a5 != a50 {
		t.Fatalf("warm EstimateWith allocates %.0f times over 5 iterations and %.0f over 50, want the same count", a5, a50)
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
// differently (projected vs row-by-row design, compiled vs direct step-2
// objectives) and minimize step 2 differently (Newton vs golden section),
// so agreement is tolerance-based: on this dataset they differ by 7.9e-5
// of the largest coefficient on parameters and by 2.4e-5 on voltages, 13×
// and 4× inside the bounds.
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
// per-row fill the full-design oracles call once per (benchmark,
// configuration).
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

// TestStep2MinimizeMatchesGoldenSection records every step-2 problem of two
// fits, the real K40c dataset replayed from its golden trace and the GTX
// Titan X-shaped synthetic one, and requires Quartic2D.Minimize's Newton
// point on each to lie in the voltage box at an objective no more than
// 1e-12 relative above that of the golden-section coordinate descent it
// replaced (refMinimize2D on the same compiled objective, at its 1e-6
// tolerance). The test replays the alternation step by step to see each
// iteration's problems; the replay must end on the fit's own parameters.
func TestStep2MinimizeMatchesGoldenSection(t *testing.T) {
	for _, ds := range []struct {
		name string
		d    *Dataset
	}{
		{"k40c-trace", k40cTraceDataset(t)},
		{"gtx-titan-x-shape", syntheticDataset(defaultSyntheticTruth(), 82, 2.0, 7)},
	} {
		d := ds.d
		opts := DefaultEstimatorOptions()
		fit, err := Estimate(context.Background(), d, opts)
		if err != nil {
			t.Fatalf("%s: Estimate: %v", ds.name, err)
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
		volt := NewVoltageTable(d.Device.CoreFreqs, d.Device.MemFreqs)
		x := make([]float64, nParams)
		if err := ws.solveXInto(x, volt, init); err != nil {
			t.Fatal(err)
		}
		prev := volt.Clone()
		lo, hi := opts.VoltageLo, opts.VoltageHi
		problems := 0
		for iter := 1; iter <= fit.Iterations; iter++ {
			m := ws.moments(x)
			for fi, cfg := range d.Configs {
				if cfg == d.Ref {
					continue
				}
				q := ws.quartic(fi, &m)
				vc, vm, err := q.Minimize(lo, hi, lo, hi, 1e-12)
				if err != nil {
					t.Fatal(err)
				}
				gc, gm := refMinimize2D(q.Eval, lo, hi, 1e-6)
				fGolden := q.Eval(gc, gm)
				if !(vc >= lo && vc <= hi && vm >= lo && vm <= hi) {
					t.Fatalf("%s: iteration %d, %v: argmin (%v, %v) outside the voltage box", ds.name, iter, cfg, vc, vm)
				}
				if f := q.Eval(vc, vm); !(f <= fGolden+1e-12*math.Abs(fGolden)) {
					t.Fatalf("%s: iteration %d, %v: objective %.17g, golden section's %.17g (%.3g relative above)",
						ds.name, iter, cfg, f, fGolden, (f-fGolden)/math.Abs(fGolden))
				}
				problems++
			}
			if err := ws.solveVoltages(x, volt, opts); err != nil {
				t.Fatal(err)
			}
			if iter > 1 {
				if err := overRelax(prev, volt, opts, d.Ref, &ws.mono); err != nil {
					t.Fatal(err)
				}
			}
			if err := ws.solveXInto(x, volt, all); err != nil {
				t.Fatal(err)
			}
			prev.CopyFrom(volt)
		}
		if x[0] != fit.Beta[0] || x[2] != fit.Beta[2] || x[nParams-1] != fit.OmegaMem {
			t.Fatalf("%s: replay ended at β0 %v, β2 %v, ω_mem %v; the fit at %v, %v, %v",
				ds.name, x[0], x[2], x[nParams-1], fit.Beta[0], fit.Beta[2], fit.OmegaMem)
		}
		t.Logf("%s: %d step-2 problems over %d iterations", ds.name, problems, fit.Iterations)
	}
}
