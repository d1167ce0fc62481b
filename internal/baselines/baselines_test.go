package baselines

import (
	"context"
	"math"
	"testing"

	"gpupower/internal/core"
	"gpupower/internal/hw"
	"gpupower/internal/stats"
)

// linearDataset generates data from an exactly frequency-linear truth, the
// family the Abe regression assumes.
func linearDataset(seed uint64) *core.Dataset {
	dev := hw.GTXTitanX()
	rng := stats.NewRNG(seed)
	d := &core.Dataset{
		Device:          dev,
		Ref:             dev.DefaultConfig(),
		Configs:         dev.AllConfigs(),
		L2BytesPerCycle: dev.L2BytesPerCycle,
	}
	truth := func(u core.Utilization, cfg hw.Config) float64 {
		p := 20 + 0.02*cfg.CoreMHz + 0.01*cfg.MemMHz
		p += cfg.CoreMHz * (0.03*u[hw.SP] + 0.02*u[hw.Int] + 0.04*u[hw.SF] +
			0.02*u[hw.DP] + 0.02*u[hw.Shared] + 0.03*u[hw.L2])
		p += cfg.MemMHz * 0.03 * u[hw.DRAM]
		return p
	}
	for b := 0; b < 40; b++ {
		u := core.Utilization{}
		for _, c := range hw.Components {
			if rng.Float64() < 0.6 {
				u[c] = rng.Float64()
			}
		}
		d.Benchmarks = append(d.Benchmarks, core.TrainingSample{Name: "lin", Util: u})
		row := make([]float64, len(d.Configs))
		for fi, cfg := range d.Configs {
			row[fi] = truth(u, cfg)
		}
		d.Power = append(d.Power, row)
	}
	return d
}

func TestAbeRecoversLinearTruth(t *testing.T) {
	d := linearDataset(1)
	m, err := FitAbe(d)
	if err != nil {
		t.Fatal(err)
	}
	// Held-out evaluation across every configuration.
	rng := stats.NewRNG(77)
	for trial := 0; trial < 10; trial++ {
		u := core.Utilization{}
		for _, c := range hw.Components {
			u[c] = rng.Float64()
		}
		in := Input{Util: u}
		for _, cfg := range d.Configs {
			want := 20 + 0.02*cfg.CoreMHz + 0.01*cfg.MemMHz +
				cfg.CoreMHz*(0.03*u[hw.SP]+0.02*u[hw.Int]+0.04*u[hw.SF]+
					0.02*u[hw.DP]+0.02*u[hw.Shared]+0.03*u[hw.L2]) +
				cfg.MemMHz*0.03*u[hw.DRAM]
			got, err := m.Predict(in, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want)/want > 0.01 {
				t.Fatalf("Abe on linear truth: %g vs %g at %v", got, want, cfg)
			}
		}
	}
}

func TestAbeTrainsOn3x3Grid(t *testing.T) {
	d := linearDataset(2)
	m, err := FitAbe(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Train) != 9 {
		t.Fatalf("Abe trained on %d configs, want 3x3 = 9", len(m.Train))
	}
}

func TestFitLinearFreqPinsVoltage(t *testing.T) {
	d := linearDataset(3)
	m, err := FitLinearFreq(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() == "" {
		t.Fatal("empty name")
	}
	// On frequency-linear data it must be near-exact.
	u := core.Utilization{hw.SP: 0.5, hw.DRAM: 0.5}
	in := Input{Util: u}
	for _, cfg := range []hw.Config{{CoreMHz: 595, MemMHz: 810}, {CoreMHz: 1164, MemMHz: 4005}} {
		want := 20 + 0.02*cfg.CoreMHz + 0.01*cfg.MemMHz + cfg.CoreMHz*0.03*0.5 + cfg.MemMHz*0.03*0.5
		got, err := m.Predict(in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want)/want > 0.02 {
			t.Fatalf("linear-freq on linear truth: %g vs %g", got, want)
		}
	}
}

func TestFixedConfigIgnoresConfiguration(t *testing.T) {
	d := linearDataset(4)
	m, err := FitFixedConfig(d)
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Util: core.Utilization{hw.SP: 0.7, hw.DRAM: 0.2}}
	p1, err := m.Predict(in, hw.Config{CoreMHz: 595, MemMHz: 810})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m.Predict(in, hw.Config{CoreMHz: 1164, MemMHz: 4005})
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("fixed-config model should ignore the configuration")
	}
	// At the reference configuration it must be accurate on training-like data.
	ref := d.Ref
	want := 20 + 0.02*ref.CoreMHz + 0.01*ref.MemMHz + ref.CoreMHz*0.03*0.7 + ref.MemMHz*0.03*0.2
	if math.Abs(p1-want)/want > 0.05 {
		t.Fatalf("fixed-config at ref: %g vs %g", p1, want)
	}
}

func TestWuModelScalesFromRefPower(t *testing.T) {
	d := linearDataset(5)
	m, err := FitWu(d, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Util: core.Utilization{hw.SP: 0.9, hw.L2: 0.3}, RefPower: 150}
	pRef, err := m.Predict(in, d.Ref)
	if err != nil {
		t.Fatal(err)
	}
	// At the reference configuration every scaling curve is 1.
	if math.Abs(pRef-150) > 1e-9 {
		t.Fatalf("Wu at ref = %g, want RefPower 150", pRef)
	}
	pLow, err := m.Predict(in, hw.Config{CoreMHz: 595, MemMHz: 810})
	if err != nil {
		t.Fatal(err)
	}
	if pLow >= pRef {
		t.Fatal("Wu prediction should drop at lower clocks")
	}
	if _, err := m.Predict(in, hw.Config{CoreMHz: 596, MemMHz: 810}); err == nil {
		t.Fatal("off-grid config accepted")
	}
}

func TestWuDeterministic(t *testing.T) {
	d := linearDataset(6)
	m1, err := FitWu(d, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := FitWu(d, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Util: core.Utilization{hw.SP: 0.4}, RefPower: 100}
	for _, cfg := range d.Configs {
		p1, _ := m1.Predict(in, cfg)
		p2, _ := m2.Predict(in, cfg)
		if p1 != p2 {
			t.Fatal("Wu fitting is not deterministic")
		}
	}
}

func TestWuRejectsBadK(t *testing.T) {
	d := linearDataset(7)
	if _, err := FitWu(d, 0, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	// k larger than the benchmark count is clamped, not an error.
	m, err := FitWu(d, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.K() > len(d.Benchmarks) {
		t.Fatalf("k = %d exceeds benchmark count", m.K())
	}
}

func TestBaselineNames(t *testing.T) {
	d := linearDataset(8)
	abe, _ := FitAbe(d)
	fx, _ := FitFixedConfig(d)
	wu, _ := FitWu(d, 3, 1)
	for _, name := range []string{abe.Name(), fx.Name(), wu.Name()} {
		if name == "" {
			t.Fatal("baseline with empty name")
		}
	}
}
