package scaling

import (
	"context"
	"math"
	"sync"
	"testing"

	"gpupower/internal/core"
	"gpupower/internal/hw"
	"gpupower/internal/kernels"
	"gpupower/internal/microbench"
	"gpupower/internal/profiler"
	"gpupower/internal/sim"
	"gpupower/internal/suites"
)

var (
	clsOnce sync.Once
	clsProf *profiler.Profiler
	cls     *Classifier
	clsErr  error
)

func trained(t *testing.T) (*profiler.Profiler, *Classifier) {
	t.Helper()
	clsOnce.Do(func() {
		b, err := sim.Open("GTX Titan X", 42)
		if err != nil {
			clsErr = err
			return
		}
		clsProf, clsErr = profiler.New(b)
		if clsErr != nil {
			return
		}
		cls, clsErr = Train(context.Background(), clsProf, microbench.Suite(), 6, 42)
	})
	if clsErr != nil {
		t.Fatal(clsErr)
	}
	return clsProf, cls
}

func TestTrainBasics(t *testing.T) {
	_, c := trained(t)
	if c.K() < 2 {
		t.Fatalf("classifier has %d classes, want >= 2", c.K())
	}
	// Every class curve is 1 at the reference configuration.
	for cls := 0; cls < c.K(); cls++ {
		if math.Abs(c.curves[cls][c.RefIndex]-1) > 1e-9 {
			t.Fatalf("class %d ratio at ref = %g, want 1", cls, c.curves[cls][c.RefIndex])
		}
		// Time ratios are positive everywhere.
		for fi, r := range c.curves[cls] {
			if r <= 0 {
				t.Fatalf("class %d has non-positive ratio %g at config %d", cls, r, fi)
			}
		}
	}
}

func TestTrainValidation(t *testing.T) {
	p, _ := trained(t)
	if _, err := Train(context.Background(), p, microbench.Suite(), 0, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Train(context.Background(), p, nil, 3, 1); err == nil {
		t.Fatal("empty suite accepted")
	}
}

// TestPredictTimeRatioAccuracy validates the learned classifier and the
// analytic roofline against the simulator's true execution times on the
// (held-out) validation applications.
func TestPredictTimeRatioAccuracy(t *testing.T) {
	p, c := trained(t)
	dev := p.HW()
	ref := dev.DefaultConfig()
	l2bpc, err := core.CalibrateL2BytesPerCycle(context.Background(), p, ref)
	if err != nil {
		t.Fatal(err)
	}

	var learnedErr, analyticErr, n float64
	for _, app := range suites.ValidationSet() {
		k := app.App.Kernels[0]
		refT, err := runAt(p, k, ref)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := p.ProfileApp(context.Background(), kernels.SingleKernelApp(k), ref)
		if err != nil {
			t.Fatal(err)
		}
		u, err := core.AppUtilization(dev, prof, l2bpc)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range dev.AllConfigs() {
			trueT, err := runAt(p, k, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := trueT / refT
			learned, err := c.PredictTimeRatio(u, cfg)
			if err != nil {
				t.Fatal(err)
			}
			analytic := AnalyticTimeRatio(u, ref, cfg)
			learnedErr += math.Abs(learned-want) / want
			analyticErr += math.Abs(analytic-want) / want
			n++
		}
	}
	learnedMAPE := 100 * learnedErr / n
	analyticMAPE := 100 * analyticErr / n
	t.Logf("time-scaling MAPE: learned %.1f%%, analytic %.1f%%", learnedMAPE, analyticMAPE)
	if learnedMAPE > 15 {
		t.Errorf("learned time model MAPE %.1f%%, want < 15%%", learnedMAPE)
	}
	if analyticMAPE > 15 {
		t.Errorf("analytic time model MAPE %.1f%%, want < 15%%", analyticMAPE)
	}
}

func TestClassifySeparatesBoundness(t *testing.T) {
	_, c := trained(t)
	memBound := core.Utilization{hw.DRAM: 0.9, hw.SP: 0.1}
	compBound := core.Utilization{hw.SP: 0.9, hw.DRAM: 0.05}

	// The memory-bound profile's class must slow down far more when the
	// memory clock drops to 810 MHz than the compute-bound one's.
	lowMem := hw.Config{CoreMHz: 975, MemMHz: 810}
	rm, err := c.PredictTimeRatio(memBound, lowMem)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := c.PredictTimeRatio(compBound, lowMem)
	if err != nil {
		t.Fatal(err)
	}
	if rm < rc+0.5 {
		t.Errorf("memory-bound slowdown %.2fx should far exceed compute-bound %.2fx at low fmem", rm, rc)
	}

	// And vice versa for a core-clock drop.
	lowCore := hw.Config{CoreMHz: 595, MemMHz: 3505}
	rm2, err := c.PredictTimeRatio(memBound, lowCore)
	if err != nil {
		t.Fatal(err)
	}
	rc2, err := c.PredictTimeRatio(compBound, lowCore)
	if err != nil {
		t.Fatal(err)
	}
	if rc2 < rm2+0.2 {
		t.Errorf("compute-bound slowdown %.2fx should exceed memory-bound %.2fx at low fcore", rc2, rm2)
	}
}

func TestPredictTimeRatioUnknownConfig(t *testing.T) {
	_, c := trained(t)
	if _, err := c.PredictTimeRatio(core.Utilization{}, hw.Config{CoreMHz: 1, MemMHz: 1}); err == nil {
		t.Fatal("unknown config accepted")
	}
}
