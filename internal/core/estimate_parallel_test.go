package core

import (
	"context"
	"runtime"
	"sync"
	"testing"
)

// withGOMAXPROCS runs fn with the scheduler width pinned to n, so
// concurrent fits run in parallel even on single-core CI hosts
// (concurrency without parallelism still shakes out races under -race).
func withGOMAXPROCS(n int, fn func()) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// modelsIdentical asserts bitwise equality of everything Estimate fits.
func modelsIdentical(t *testing.T, a, b *Model) {
	t.Helper()
	if a.Beta != b.Beta {
		t.Fatalf("Beta differs: %v vs %v", a.Beta, b.Beta)
	}
	for c, v := range a.OmegaCore {
		if b.OmegaCore[c] != v {
			t.Fatalf("ω_%s differs: %v vs %v", c, v, b.OmegaCore[c])
		}
	}
	if a.OmegaMem != b.OmegaMem {
		t.Fatalf("ω_mem differs: %v vs %v", a.OmegaMem, b.OmegaMem)
	}
	if a.Iterations != b.Iterations || a.Converged != b.Converged {
		t.Fatalf("trajectory differs: (%d, %v) vs (%d, %v)",
			a.Iterations, a.Converged, b.Iterations, b.Converged)
	}
	for mi := range a.Voltages.VCore {
		for ci := range a.Voltages.VCore[mi] {
			if a.Voltages.VCore[mi][ci] != b.Voltages.VCore[mi][ci] {
				t.Fatalf("V̄core differs at (%d,%d): %v vs %v", mi, ci,
					a.Voltages.VCore[mi][ci], b.Voltages.VCore[mi][ci])
			}
			if a.Voltages.VMem[mi][ci] != b.Voltages.VMem[mi][ci] {
				t.Fatalf("V̄mem differs at (%d,%d): %v vs %v", mi, ci,
					a.Voltages.VMem[mi][ci], b.Voltages.VMem[mi][ci])
			}
		}
	}
}

// TestEstimateConcurrentOnSharedDataset runs several fits against the SAME
// dataset from concurrent goroutines. Estimate must treat the dataset as
// read-only — under `go test -race` this test proves it — and every fit
// must land on the identical model.
func TestEstimateConcurrentOnSharedDataset(t *testing.T) {
	truth := defaultSyntheticTruth()
	d := syntheticDataset(truth, 30, 0.5, 11)

	withGOMAXPROCS(4, func() {
		const fits = 4
		models := make([]*Model, fits)
		errs := make([]error, fits)
		var wg sync.WaitGroup
		wg.Add(fits)
		for i := 0; i < fits; i++ {
			go func(i int) {
				defer wg.Done()
				models[i], errs[i] = Estimate(context.Background(), d, nil)
			}(i)
		}
		wg.Wait()
		for i := 0; i < fits; i++ {
			if errs[i] != nil {
				t.Fatalf("concurrent fit %d: %v", i, errs[i])
			}
		}
		for i := 1; i < fits; i++ {
			modelsIdentical(t, models[0], models[i])
		}
	})
}

// trainingSSE is the training SSE of x under volt on a fresh workspace.
func trainingSSE(d *Dataset, volt *VoltageTable, x []float64) (float64, error) {
	return newEstimatorWorkspace(d).trainingSSE(volt, x)
}

// TestTrainingSSEPropagatesVoltageError is the regression test for the
// silent-continue bug: a voltage table that cannot resolve one of the
// dataset's configurations used to be skipped, understating the SSE (and
// potentially declaring convergence on a partial objective). It must now
// surface as a hard error.
func TestTrainingSSEPropagatesVoltageError(t *testing.T) {
	truth := defaultSyntheticTruth()
	d := syntheticDataset(truth, 5, 0, 3)

	// A table built over a truncated core ladder cannot resolve most of the
	// dataset's configurations.
	truncated := NewVoltageTable(d.Device.CoreFreqs[:1], d.Device.MemFreqs)
	x := make([]float64, nParams)
	if _, err := trainingSSE(d, truncated, x); err == nil {
		t.Fatal("trainingSSE swallowed the voltage-table miss")
	}

	// Happy path: the full table yields the measured power's SSE for the
	// all-zero parameter vector (prediction ≡ 0). The projected SSE sums
	// ‖Qᵀp_c‖² rather than ‖p_c‖², equal up to rounding.
	full := NewVoltageTable(d.Device.CoreFreqs, d.Device.MemFreqs)
	got, err := trainingSSE(d, full, x)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for fi := range d.Configs {
		var s float64
		for bi := range d.Benchmarks {
			p := d.Power[bi][fi]
			s += p * p
		}
		want += s
	}
	if !withinRel(got, want, 1e-12) {
		t.Fatalf("SSE(x=0) = %.17g, want the measured power SSE %.17g within 1e-12 relative", got, want)
	}
}
