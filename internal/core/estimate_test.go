package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"gpupower/internal/hw"
	"gpupower/internal/stats"
)

// syntheticTruth defines a known ground-truth model (within the fitted
// family) used to verify the estimator recovers what generated the data.
type syntheticTruth struct {
	dev   *hw.Device
	beta  [4]float64
	omega map[hw.Component]float64
	vcore func(f float64) float64 // normalized to the default core clock
	vmem  func(f float64) float64
}

func defaultSyntheticTruth() *syntheticTruth {
	dev := hw.GTXTitanX()
	return &syntheticTruth{
		dev:  dev,
		beta: [4]float64{15, 0.017, 8, 0.0126},
		omega: map[hw.Component]float64{
			hw.Int: 0.025, hw.SP: 0.030, hw.DP: 0.020,
			hw.SF: 0.045, hw.Shared: 0.020, hw.L2: 0.030,
			hw.DRAM: 0.0334,
		},
		vcore: func(f float64) float64 {
			// Plateau + linear, normalized at 975 MHz.
			v := 0.9
			if f > 747 {
				v = 0.9 + (f-747)*(1.15-0.9)/(1164-747)
			}
			ref := 0.9 + (975-747)*(1.15-0.9)/(1164-747)
			return v / ref
		},
		vmem: func(f float64) float64 { return 1 },
	}
}

func (s *syntheticTruth) power(u Utilization, cfg hw.Config) float64 {
	vc := s.vcore(cfg.CoreMHz)
	vm := s.vmem(cfg.MemMHz)
	p := s.beta[0]*vc + vc*vc*cfg.CoreMHz*s.beta[1] +
		s.beta[2]*vm + vm*vm*cfg.MemMHz*s.beta[3]
	for _, c := range CoreOmegaOrder {
		p += vc * vc * cfg.CoreMHz * s.omega[c] * u[c]
	}
	p += vm * vm * cfg.MemMHz * s.omega[hw.DRAM] * u[hw.DRAM]
	return p
}

// syntheticDataset generates a noiseless (or lightly noisy) training set
// from the synthetic truth, with diverse random utilization vectors.
func syntheticDataset(s *syntheticTruth, nBench int, noise float64, seed uint64) *Dataset {
	rng := stats.NewRNG(seed)
	d := &Dataset{
		Device:          s.dev,
		Ref:             s.dev.DefaultConfig(),
		Configs:         s.dev.AllConfigs(),
		L2BytesPerCycle: s.dev.L2BytesPerCycle,
	}
	for b := 0; b < nBench; b++ {
		u := Utilization{}
		// Mixture of stressed and idle components, like the real suite.
		for _, c := range hw.Components {
			if rng.Float64() < 0.5 {
				u[c] = rng.Float64()
			}
		}
		d.Benchmarks = append(d.Benchmarks, TrainingSample{
			Name: "synthetic",
			Util: u,
		})
		row := make([]float64, len(d.Configs))
		for fi, cfg := range d.Configs {
			p := s.power(u, cfg)
			if noise > 0 {
				p += rng.Normal(0, noise)
			}
			if p < 0 {
				p = 0
			}
			row[fi] = p
		}
		d.Power = append(d.Power, row)
	}
	// One idle row anchors the constant terms, like the real ub_idle.
	d.Benchmarks = append(d.Benchmarks, TrainingSample{Name: "idle", Util: Utilization{}})
	row := make([]float64, len(d.Configs))
	for fi, cfg := range d.Configs {
		row[fi] = s.power(Utilization{}, cfg)
	}
	d.Power = append(d.Power, row)
	return d
}

// TestEstimateRecoversSyntheticTruth is the estimator's core correctness
// test: on noiseless data generated from the model family, predictions must
// match the truth almost exactly and the voltage ladder must be recovered.
func TestEstimateRecoversSyntheticTruth(t *testing.T) {
	truth := defaultSyntheticTruth()
	d := syntheticDataset(truth, 60, 0, 1)
	m, err := Estimate(context.Background(), d, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Held-out workloads across the whole configuration space.
	rng := stats.NewRNG(99)
	var worst float64
	for trial := 0; trial < 20; trial++ {
		u := Utilization{}
		for _, c := range hw.Components {
			u[c] = rng.Float64()
		}
		for _, cfg := range d.Configs {
			want := truth.power(u, cfg)
			got, err := m.Predict(u, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(got-want) / want; rel > worst {
				worst = rel
			}
		}
	}
	if worst > 0.02 {
		t.Fatalf("worst held-out relative error %.3f, want < 0.02 on noiseless data", worst)
	}

	// Voltage recovery at the default memory frequency.
	freqs, vbar, err := m.PredictedCoreVoltage(d.Ref.MemMHz)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range freqs {
		if math.Abs(vbar[i]-truth.vcore(f)) > 0.03 {
			t.Errorf("V̄core(%g) = %.3f, want %.3f", f, vbar[i], truth.vcore(f))
		}
	}
}

func TestEstimateVoltageMonotone(t *testing.T) {
	truth := defaultSyntheticTruth()
	d := syntheticDataset(truth, 40, 1.0, 2) // noisy: projection must still hold
	m, err := Estimate(context.Background(), d, nil)
	if err != nil {
		t.Fatal(err)
	}
	for mi := range m.Voltages.VCore {
		row := m.Voltages.VCore[mi]
		for i := 1; i < len(row); i++ {
			if row[i] < row[i-1]-1e-9 {
				t.Fatalf("V̄core not monotone at mem level %d: %v", mi, row)
			}
		}
	}
}

func TestEstimateReferencePinned(t *testing.T) {
	truth := defaultSyntheticTruth()
	d := syntheticDataset(truth, 30, 0.5, 3)
	m, err := Estimate(context.Background(), d, nil)
	if err != nil {
		t.Fatal(err)
	}
	vc, vm, err := m.Voltages.At(d.Ref)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(vc, 1, 1e-9) || !almostEq(vm, 1, 1e-9) {
		t.Fatalf("V̄(ref) = (%g, %g), want (1, 1)", vc, vm)
	}
}

func TestEstimateNonNegativeCoefficients(t *testing.T) {
	truth := defaultSyntheticTruth()
	d := syntheticDataset(truth, 40, 2.0, 4)
	m, err := Estimate(context.Background(), d, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range m.Beta {
		if b < 0 {
			t.Fatalf("β%d = %g < 0", i, b)
		}
	}
	for c, w := range m.OmegaCore {
		if w < 0 {
			t.Fatalf("ω_%s = %g < 0", c, w)
		}
	}
	if m.OmegaMem < 0 {
		t.Fatal("ω_mem < 0")
	}
}

func TestEstimateAblationModes(t *testing.T) {
	truth := defaultSyntheticTruth()
	d := syntheticDataset(truth, 50, 0, 5)

	full, err := Estimate(context.Background(), d, nil)
	if err != nil {
		t.Fatal(err)
	}

	noVolt := DefaultEstimatorOptions()
	noVolt.DisableVoltage = true
	mv, err := Estimate(context.Background(), d, noVolt)
	if err != nil {
		t.Fatal(err)
	}
	if mv.Iterations != 1 {
		t.Fatal("ablation should be single-pass")
	}
	for mi := range mv.Voltages.VCore {
		for _, v := range mv.Voltages.VCore[mi] {
			if v != 1 {
				t.Fatal("DisableVoltage must pin V̄ = 1")
			}
		}
	}

	lin := DefaultEstimatorOptions()
	lin.LinearVoltage = true
	ml, err := Estimate(context.Background(), d, lin)
	if err != nil {
		t.Fatal(err)
	}
	vc, _, _ := ml.Voltages.At(hw.Config{CoreMHz: 595, MemMHz: d.Ref.MemMHz})
	if !almostEq(vc, 595.0/975.0, 1e-9) {
		t.Fatalf("LinearVoltage V̄(595) = %g, want %g", vc, 595.0/975.0)
	}

	// On data generated with a non-linear plateau V(f), the full algorithm
	// must beat both ablations on training SSE.
	sse := func(m *Model) float64 {
		var s float64
		for fi, cfg := range d.Configs {
			for bi := range d.Benchmarks {
				p, err := m.Predict(d.Benchmarks[bi].Util, cfg)
				if err != nil {
					t.Fatal(err)
				}
				diff := d.Power[bi][fi] - p
				s += diff * diff
			}
		}
		return s
	}
	fullSSE, noVoltSSE, linSSE := sse(full), sse(mv), sse(ml)
	if fullSSE > noVoltSSE {
		t.Fatalf("full SSE %g worse than no-voltage %g", fullSSE, noVoltSSE)
	}
	if fullSSE > linSSE {
		t.Fatalf("full SSE %g worse than linear-voltage %g", fullSSE, linSSE)
	}
}

func TestEstimateInputValidation(t *testing.T) {
	truth := defaultSyntheticTruth()
	d := syntheticDataset(truth, 10, 0, 6)

	opts := DefaultEstimatorOptions()
	opts.MaxIterations = 0
	if _, err := Estimate(context.Background(), d, opts); err == nil {
		t.Fatal("MaxIterations=0 accepted")
	}

	bad := *d
	bad.Power = bad.Power[:1]
	if _, err := Estimate(context.Background(), &bad, nil); err == nil {
		t.Fatal("inconsistent dataset accepted")
	}
}

// TestEstimateRejectsNonFiniteMeasurements pins the input guard: one NaN or
// +Inf power sample, or one NaN utilization, must fail the fit rather than
// come back as a "converged" all-zero or infinite model.
func TestEstimateRejectsNonFiniteMeasurements(t *testing.T) {
	truth := defaultSyntheticTruth()
	cases := []struct {
		name string
		mod  func(d *Dataset)
	}{
		{"NaN power", func(d *Dataset) { d.Power[3][1] = math.NaN() }},
		{"+Inf power", func(d *Dataset) { d.Power[3][1] = math.Inf(1) }},
		{"NaN utilization", func(d *Dataset) { d.Benchmarks[2].Util[hw.DRAM] = math.NaN() }},
	}
	for _, tc := range cases {
		d := syntheticDataset(truth, 12, 0.01, 42)
		if _, err := Estimate(context.Background(), d, nil); err != nil {
			t.Fatalf("%s: unmodified dataset: %v", tc.name, err)
		}
		tc.mod(d)
		m, err := Estimate(context.Background(), d, nil)
		if err == nil {
			t.Errorf("%s: Estimate accepted the dataset (β = %v)", tc.name, m.Beta)
			continue
		}
		if m != nil {
			t.Errorf("%s: Estimate returned a model with its error %v", tc.name, err)
		}
	}
}

// designRow fills one row of the regression design for benchmark
// utilization u at configuration cfg with normalized voltages (vc, vm):
//
//	P̂ = β0·vc + β1·vc²·fc + β2·vm + β3·vm²·fm
//	    + Σ_i ω_i·vc²·fc·U_i + ω_mem·vm²·fm·U_dram
func designRow(u Utilization, cfg hw.Config, vc, vm float64) []float64 {
	row := make([]float64, nParams)
	designRowInto(row, u, cfg, vc, vm)
	return row
}

// designRowInto is the allocation-free form of designRow: it fills dst
// (len nParams) in place. The estimator never builds these rows: it solves
// their projection (estimatorWorkspace), which referenceSolveX and
// referenceTrainingSSE check against the row-by-row design.
func designRowInto(dst []float64, u Utilization, cfg hw.Config, vc, vm float64) {
	fc, fm := cfg.CoreMHz, cfg.MemMHz
	dst[0] = vc
	dst[1] = vc * vc * fc
	dst[2] = vm
	dst[3] = vm * vm * fm
	for i, c := range CoreOmegaOrder {
		dst[4+i] = vc * vc * fc * u[c]
	}
	dst[10] = vm * vm * fm * u[hw.DRAM]
}

// modelToParams packs model fields back into an X vector.
func modelToParams(m *Model) []float64 {
	x := make([]float64, nParams)
	copy(x[:4], m.Beta[:])
	for i, c := range CoreOmegaOrder {
		x[4+i] = m.OmegaCore[c]
	}
	x[10] = m.OmegaMem
	return x
}

func TestDesignRow(t *testing.T) {
	u := Utilization{hw.Int: 0.1, hw.SP: 0.2, hw.DP: 0.3, hw.SF: 0.4, hw.Shared: 0.5, hw.L2: 0.6, hw.DRAM: 0.7}
	cfg := hw.Config{CoreMHz: 1000, MemMHz: 2000}
	row := designRow(u, cfg, 1.1, 0.9)
	if len(row) != nParams {
		t.Fatalf("row length %d", len(row))
	}
	if !almostEq(row[0], 1.1, 1e-12) || !almostEq(row[2], 0.9, 1e-12) {
		t.Fatal("static columns wrong")
	}
	if !almostEq(row[1], 1.1*1.1*1000, 1e-9) || !almostEq(row[3], 0.9*0.9*2000, 1e-9) {
		t.Fatal("idle-dynamic columns wrong")
	}
	if !almostEq(row[4], 1.1*1.1*1000*0.1, 1e-9) { // Int is first in CoreOmegaOrder
		t.Fatal("Int column wrong")
	}
	if !almostEq(row[10], 0.9*0.9*2000*0.7, 1e-9) {
		t.Fatal("DRAM column wrong")
	}
}

func TestParamsRoundTrip(t *testing.T) {
	m := referenceModel()
	x := modelToParams(m)
	var m2 Model
	paramsToModel(&m2, x)
	if m2.Beta != m.Beta || m2.OmegaMem != m.OmegaMem {
		t.Fatal("params round trip lost betas")
	}
	for c, w := range m.OmegaCore {
		if m2.OmegaCore[c] != w {
			t.Fatalf("ω_%s lost", c)
		}
	}
}

func TestTraceCallback(t *testing.T) {
	truth := defaultSyntheticTruth()
	d := syntheticDataset(truth, 20, 0, 8)
	opts := DefaultEstimatorOptions()
	var iters []int
	opts.Trace = func(iter int, dv, dx, sse float64) {
		iters = append(iters, iter)
		if sse < 0 {
			t.Fatal("negative SSE")
		}
	}
	m, err := Estimate(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != m.Iterations {
		t.Fatalf("trace calls %d != iterations %d", len(iters), m.Iterations)
	}
}

func TestEstimateWithKnownVoltages(t *testing.T) {
	// The Section III-D simplification: supplying the true voltages skips
	// the alternation and must fit the noiseless data essentially exactly.
	truth := defaultSyntheticTruth()
	d := syntheticDataset(truth, 40, 0, 9)

	known := NewVoltageTable(truth.dev.CoreFreqs, truth.dev.MemFreqs)
	for _, cfg := range d.Configs {
		if err := known.Set(cfg, truth.vcore(cfg.CoreMHz), truth.vmem(cfg.MemMHz)); err != nil {
			t.Fatal(err)
		}
	}
	opts := DefaultEstimatorOptions()
	opts.KnownVoltages = known
	m, err := Estimate(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Iterations != 1 {
		t.Fatalf("known-voltage fit took %d iterations, want 1", m.Iterations)
	}
	// Coefficients recovered almost exactly.
	if math.Abs(m.Beta[1]-truth.beta[1]) > 1e-4 {
		t.Errorf("β1 = %g, want %g", m.Beta[1], truth.beta[1])
	}
	for _, c := range CoreOmegaOrder {
		if math.Abs(m.OmegaCore[c]-truth.omega[c]) > 1e-4 {
			t.Errorf("ω_%s = %g, want %g", c, m.OmegaCore[c], truth.omega[c])
		}
	}
	if math.Abs(m.OmegaMem-truth.omega[hw.DRAM]) > 1e-4 {
		t.Errorf("ω_mem = %g, want %g", m.OmegaMem, truth.omega[hw.DRAM])
	}
	// Held-out prediction must be at least as good as the full algorithm's.
	full, err := Estimate(context.Background(), d, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(123)
	var worstKnown, worstFull float64
	for trial := 0; trial < 10; trial++ {
		u := Utilization{}
		for _, c := range hw.Components {
			u[c] = rng.Float64()
		}
		for _, cfg := range d.Configs {
			want := truth.power(u, cfg)
			pk, _ := m.Predict(u, cfg)
			pf, _ := full.Predict(u, cfg)
			if rel := math.Abs(pk-want) / want; rel > worstKnown {
				worstKnown = rel
			}
			if rel := math.Abs(pf-want) / want; rel > worstFull {
				worstFull = rel
			}
		}
	}
	if worstKnown > 1e-6 {
		t.Errorf("known-voltage fit not exact on noiseless data: %g", worstKnown)
	}
	if worstKnown > worstFull {
		t.Errorf("known voltages (%g) should not trail the blind fit (%g)", worstKnown, worstFull)
	}
}

func TestKnownVoltagesIncompatibleWithAblations(t *testing.T) {
	truth := defaultSyntheticTruth()
	d := syntheticDataset(truth, 10, 0, 10)
	opts := DefaultEstimatorOptions()
	opts.KnownVoltages = NewVoltageTable(truth.dev.CoreFreqs, truth.dev.MemFreqs)
	opts.DisableVoltage = true
	if _, err := Estimate(context.Background(), d, opts); err == nil {
		t.Fatal("KnownVoltages + DisableVoltage accepted")
	}
}

// TestEstimateRejectsInvalidKnownVoltages checks that a known voltage that
// is not finite and positive is rejected before step 3, by an error that
// names the option and the configuration, with no model beside it.
func TestEstimateRejectsInvalidKnownVoltages(t *testing.T) {
	truth := defaultSyntheticTruth()
	d := syntheticDataset(truth, 10, 0, 10)
	bad := d.Configs[len(d.Configs)/2]
	for _, tc := range []struct {
		name   string
		vc, vm float64
	}{
		{"negative core", -1, 1},
		{"zero core", 0, 1},
		{"NaN core", math.NaN(), 1},
		{"infinite memory", 1, math.Inf(1)},
		{"negative memory", 1, -0.5},
	} {
		known := NewVoltageTable(truth.dev.CoreFreqs, truth.dev.MemFreqs)
		for _, cfg := range d.Configs {
			if err := known.Set(cfg, truth.vcore(cfg.CoreMHz), truth.vmem(cfg.MemMHz)); err != nil {
				t.Fatal(err)
			}
		}
		if err := known.Set(bad, tc.vc, tc.vm); err != nil {
			t.Fatal(err)
		}
		opts := DefaultEstimatorOptions()
		opts.KnownVoltages = known
		m, err := Estimate(context.Background(), d, opts)
		if err == nil || m != nil {
			t.Fatalf("%s: Estimate = %v, %v; want nil and an error", tc.name, m, err)
		}
		where := fmt.Sprintf("%.0f/%.0f MHz", bad.CoreMHz, bad.MemMHz)
		if msg := err.Error(); !strings.Contains(msg, "KnownVoltages") || !strings.Contains(msg, where) {
			t.Errorf("%s: error %q does not name KnownVoltages and %s", tc.name, msg, where)
		}
	}
}

// TestEstimateInvalidModelReturnsNil pins the exits that reject a fit: an
// invalid input comes back as an error with no model beside it. A
// known-voltage table with V̄core = −1 is rejected before step 3; a dataset
// whose L2 bytes/cycle is zero is refused by Dataset.Validate before step
// 1, on the alternation and on the ablation path.
func TestEstimateInvalidModelReturnsNil(t *testing.T) {
	truth := defaultSyntheticTruth()
	d := syntheticDataset(truth, 10, 0, 10)
	known := NewVoltageTable(truth.dev.CoreFreqs, truth.dev.MemFreqs)
	for mi := range known.VCore {
		for ci := range known.VCore[mi] {
			known.VCore[mi][ci] = -1
		}
	}
	opts := DefaultEstimatorOptions()
	opts.KnownVoltages = known
	m, err := Estimate(context.Background(), d, opts)
	if err == nil {
		t.Fatal("known voltages of -1 accepted")
	}
	if m != nil {
		t.Fatalf("Estimate returned a model next to its error %v", err)
	}

	d.L2BytesPerCycle = 0
	ablation := DefaultEstimatorOptions()
	ablation.DisableVoltage = true
	for _, opts := range []*EstimatorOptions{nil, ablation} {
		m, err := Estimate(context.Background(), d, opts)
		if err == nil {
			t.Fatal("zero L2 bytes/cycle accepted")
		}
		if m != nil {
			t.Fatalf("Estimate returned a model next to its error %v", err)
		}
	}
}
