package gpupower_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (Section V). One testing.B benchmark per artifact:
//
//	go test -bench=. -benchmem
//
// The first benchmark touching a device pays the model-fitting cost; rigs
// are cached process-wide (experiments.SharedRig), so subsequent figures
// reuse the three fitted models, exactly like the paper's workflow (fit
// once, evaluate everywhere).

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"gpupower"
	"gpupower/internal/core"
	"gpupower/internal/experiments"
	"gpupower/internal/fleet"
	"gpupower/internal/hw"
	"gpupower/internal/linalg"
	"gpupower/internal/microbench"
	"gpupower/internal/registry"
	"gpupower/internal/serve"
	"gpupower/internal/silicon"
	"gpupower/internal/stats"
)

const benchSeed = experiments.DefaultSeed

// BenchmarkTable1 regenerates Table I (performance events per device).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RenderTable1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates Table II (device characteristics).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.RenderTable2()
	}
}

// BenchmarkTable3 regenerates Table III (validation benchmarks).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.RenderTable3()
	}
}

// BenchmarkFig2 regenerates Fig. 2 (DVFS impact on BlackScholes and CUTCP).
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig2(context.Background(), benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 regenerates Fig. 5 (microbenchmark utilizations and power
// breakdown).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig5(context.Background(), benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 regenerates Fig. 6 (measured vs predicted core voltage).
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig6(context.Background(), benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 regenerates Fig. 7 (power prediction for all V-F
// configurations on the three devices). This is the headline experiment.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig7(context.Background(), benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, d := range r.Devices {
				b.ReportMetric(d.MAE, "MAE%/"+shortDevice(d.Device))
			}
		}
	}
}

func shortDevice(name string) string {
	switch name {
	case "Titan Xp":
		return "xp"
	case "GTX Titan X":
		return "titanx"
	default:
		return "k40c"
	}
}

// BenchmarkFig8 regenerates Fig. 8 (per-memory-frequency prediction error).
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig8(context.Background(), benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9 regenerates Fig. 9 (matrixMulCUBLAS input-size sweep).
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig9(context.Background(), benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10 regenerates Fig. 10 (validation-set power breakdown).
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig10(context.Background(), benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvergence regenerates the Section V-A convergence report.
func BenchmarkConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunConvergence(context.Background(), benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselines regenerates the Section VI baseline comparison.
func BenchmarkBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunBaselines(context.Background(), benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation regenerates the design-choice ablations.
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblation(context.Background(), benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// --- component-level benchmarks ---

// BenchmarkModelFitK40c measures one full Section III-D fit (dataset
// collection + iterative estimation) on the smallest device.
func BenchmarkModelFitK40c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gpu, err := gpupower.Open(gpupower.TeslaK40c, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := gpu.FitPowerModel(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredict measures a single model evaluation (the operation a
// real-time DVFS governor would run).
func BenchmarkPredict(b *testing.B) {
	r, err := experiments.SharedRig("GTX Titan X", benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	m, err := r.Model(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	u := core.Utilization{hw.SP: 0.8, hw.DRAM: 0.4, hw.L2: 0.2, hw.Int: 0.1}
	cfg := hw.Config{CoreMHz: 595, MemMHz: 810}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Predict(u, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateKernel measures the roofline timing model.
func BenchmarkSimulateKernel(b *testing.B) {
	dev := hw.GTXTitanX()
	k := microbench.Suite()[0].Kernel
	cfg := dev.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := silicon.Simulate(dev, k, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// nnlsProblem builds the fitting problem at the size a GTX Titan X fit
// solves: its 64 configurations × 11 parameters, with 8 rows per
// configuration, because step 3 solves the projection of each
// configuration's 83 benchmark rows onto the 8 utilization features
// (DESIGN.md §10.2).
func nnlsProblem() (*linalg.Matrix, []float64) {
	rng := stats.NewRNG(1)
	rows, cols := 64*8, 11
	a := linalg.NewMatrix(rows, cols)
	y := make([]float64, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			a.Set(i, j, rng.Float64())
		}
		y[i] = rng.Uniform(50, 250)
	}
	return a, y
}

// BenchmarkNNLS measures the regression core the way the estimation engine
// actually calls it: through a reused NNLSWorkspace, so the ~57 KB of QR
// and active-set scratch is a one-time cost outside the timer and the steady
// state is allocation-free (DESIGN.md §10).
func BenchmarkNNLS(b *testing.B) {
	a, y := nnlsProblem()
	ws := linalg.NewNNLSWorkspace(a.Rows(), a.Cols())
	x := make([]float64, a.Cols())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ws.SolveInto(x, a, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNNLSCold preserves the allocating convenience-API path (fresh
// workspace per solve) so the cost BenchmarkNNLS amortizes away stays
// visible in BENCH_results.json.
func BenchmarkNNLSCold(b *testing.B) {
	a, y := nnlsProblem()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.NNLS(a, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIsotonic measures the monotonic-projection step the way step 2
// runs it: a held PAVA, its block stack grown by a first fit outside the
// timer, fitting a fresh copy of the same 64-point input in place.
func BenchmarkIsotonic(b *testing.B) {
	rng := stats.NewRNG(2)
	src := make([]float64, 64)
	for i := range src {
		src[i] = rng.Normal(1, 0.1)
	}
	y := append([]float64(nil), src...)
	var p linalg.PAVA
	if err := p.FitInPlace(y, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(y, src)
		if err := p.FitInPlace(y, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureAppPower measures the Section V-A measurement loop
// (repeat to ≥1 s, median of 10) for one application at one configuration.
func BenchmarkMeasureAppPower(b *testing.B) {
	r, err := experiments.SharedRig("GTX Titan X", benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	wl, err := gpupower.WorkloadByName("BLCKSC")
	if err != nil {
		b.Fatal(err)
	}
	cfg := hw.Config{CoreMHz: 975, MemMHz: 3505}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Profiler.MeasureAppPower(context.Background(), wl.App, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDVFSSearch measures the use-case-3 operating-point search across
// the whole configuration space, cold: every iteration searches with a
// fresh copy of the model, which the surface cache has never seen, so each
// search evaluates the full ladder. BenchmarkFindBestConfigWarm is the
// same search on a warm surface.
func BenchmarkDVFSSearch(b *testing.B) {
	gpu, err := gpupower.Open(gpupower.GTXTitanX, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	r, err := experiments.SharedRig("GTX Titan X", benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	m, err := r.Model(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	wl, err := gpupower.WorkloadByName("LBM")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := gpu.ProfileForModel(wl.App, m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := *m
		if _, err := gpupower.FindBestConfig(&fresh, gpu.Device(), prof, gpupower.MinEnergy); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRobustness evaluates the Fig. 7 accuracy across three
// independent die instances (seed sweep).
func BenchmarkRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunRobustness(context.Background(), []uint64{benchSeed, benchSeed + 1, benchSeed + 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBreakdownTruth regenerates the simulator-only component-level
// decomposition validation.
func BenchmarkBreakdownTruth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, dev := range []string{"Titan Xp", "GTX Titan X", "Tesla K40c"} {
			if _, err := experiments.RunBreakdownTruth(context.Background(), dev, benchSeed); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkGovernor regenerates the real-time governor study (the paper's
// Section VII future-work scenario).
func BenchmarkGovernor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunGovernorStudy(context.Background(), benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimeModel regenerates the time-scaling validation (the paper's
// companion performance model, ref. [9]).
func BenchmarkTimeModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTimeModel(context.Background(), benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Estimation benchmarks --------------------------------------------------
//
// BenchmarkEstimate/<device> times the Section III-D fit per device catalog
// (Titan Xp: 22×2 ladder, GTX Titan X: 16×4, Tesla K40c: 4×1). The dataset
// is measured once outside the timer; the loop times Estimate alone, one
// fit per op. Its GTX Titan X row is one of the rows `make bench-json`
// gates with a ceiling: a fit is serial, so its time does not depend on
// the host's core count.
//
//	go test -run NONE -bench 'BenchmarkEstimate$' -benchtime 10x

func estimateDataset(b *testing.B, device string) *core.Dataset {
	b.Helper()
	r, err := experiments.SharedRig(device, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	d, err := r.Dataset(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkEstimate(b *testing.B) {
	for _, device := range []string{gpupower.TitanXp, gpupower.GTXTitanX, gpupower.TeslaK40c} {
		b.Run(device, func(b *testing.B) {
			d := estimateDataset(b, device)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Estimate(context.Background(), d, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFleetFit measures fleet-scale fitting throughput: nine
// heterogeneous registry members fitted concurrently with per-worker
// workspace reuse, reported as models/min. Datasets are measured once
// outside the timer, mirroring production where samples arrive from the
// devices themselves. GOMAXPROCS is raised to the fleet size so all nine
// fits are in flight at once even on narrow hosts.
func BenchmarkFleetFit(b *testing.B) {
	specs := fleet.Registry(9, benchSeed)
	members, err := fleet.OpenMembers(specs)
	if err != nil {
		b.Fatal(err)
	}
	datasets, err := fleet.BuildMemberDatasets(context.Background(), members)
	if err != nil {
		b.Fatal(err)
	}
	if procs := runtime.GOMAXPROCS(0); procs < len(specs) {
		prev := runtime.GOMAXPROCS(len(specs))
		defer runtime.GOMAXPROCS(prev)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fleet.FitDatasets(context.Background(), datasets, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(specs)*b.N)/b.Elapsed().Minutes(), "models/min")
}

// BenchmarkEvaluateOperatingPoints times the DVFS sweep that
// FindBestConfig rides on (one model evaluation per ladder configuration).
func BenchmarkEvaluateOperatingPoints(b *testing.B) {
	gpu, err := gpupower.Open(gpupower.GTXTitanX, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	r, err := experiments.SharedRig("GTX Titan X", benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	m, err := r.Model(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	wl, err := gpupower.WorkloadByName("LBM")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := gpu.ProfileForModel(wl.App, m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gpupower.EvaluateOperatingPoints(m, gpu.Device(), prof); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFindBestConfigWarm times the repeated operating-point search on
// a warm prediction surface — the steady state of a governor re-deciding an
// already-profiled kernel. The first call outside the timer populates the
// surface cache; every timed iteration is a cache hit plus one ordered scan
// of the ladder. BenchmarkDVFSSearch is the same search on a cold surface.
func BenchmarkFindBestConfigWarm(b *testing.B) {
	gpu, err := gpupower.Open(gpupower.GTXTitanX, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	r, err := experiments.SharedRig("GTX Titan X", benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	m, err := r.Model(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	wl, err := gpupower.WorkloadByName("LBM")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := gpu.ProfileForModel(wl.App, m)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the surface cache before the timer starts.
	if _, err := gpupower.FindBestConfig(m, gpu.Device(), prof, gpupower.MinEnergy); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gpupower.FindBestConfig(m, gpu.Device(), prof, gpupower.MinEnergy); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServePredict measures gpowerd's batch /v1/predict through the
// handler's ServeHTTP with a response recorder and no socket: decode, one
// registry snapshot, full-ladder items served from warm prediction
// surfaces, and the pooled response encoder. The utilization vectors
// repeat, as a governor's steady state does, and the surfaces are warmed
// before the timer starts. Bitwise agreement with Model.Predict is
// TestPredictFullLadderBitwise's job; every op here checks for HTTP 200.
func BenchmarkServePredict(b *testing.B) {
	// 256 full-ladder items on the GTX Titan X (16×4 ladder) are 16,384
	// predictions per request, cycling 64 seeded utilization vectors.
	const nItems, nDistinct = 256, 64
	r, err := experiments.SharedRig("GTX Titan X", benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	m, err := r.Model(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	entry, err := registry.NewEntry(r.Device.Name, r.Device, r.Sim, r.Profiler, m,
		registry.FitMeta{Source: "simulator"})
	if err != nil {
		b.Fatal(err)
	}
	reg := registry.New()
	if err := reg.Add(entry); err != nil {
		b.Fatal(err)
	}
	srv := serve.New(reg, nil)

	rng := stats.NewRNG(benchSeed ^ 0x5e12e10ad)
	utils := make([]map[string]float64, nDistinct)
	for i := range utils {
		utils[i] = make(map[string]float64, len(hw.Components))
		for _, c := range hw.Components {
			utils[i][c.String()] = rng.Float64()
		}
	}
	type item struct {
		Utilization map[string]float64 `json:"utilization"`
	}
	items := make([]item, nItems)
	for i := range items {
		items[i].Utilization = utils[i%len(utils)]
	}
	body, err := json.Marshal(map[string]any{"device": r.Device.Name, "items": items})
	if err != nil {
		b.Fatal(err)
	}
	predictions := nItems * r.Device.NumConfigs()

	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("predict: HTTP %d: %s", rec.Code, rec.Body.Bytes())
		}
		return rec
	}
	// Warm the surface cache and check the op's prediction count.
	var resp struct {
		Predictions int `json:"predictions"`
	}
	if err := json.Unmarshal(post().Body.Bytes(), &resp); err != nil {
		b.Fatal(err)
	}
	if resp.Predictions != predictions {
		b.Fatalf("served %d predictions per request, want %d", resp.Predictions, predictions)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
	b.StopTimer()
	b.ReportMetric(float64(predictions*b.N)/b.Elapsed().Seconds(), "predictions/sec")
}
