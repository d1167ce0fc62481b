package core

import (
	"math"
	"testing"

	"gpupower/internal/hw"
)

// referenceModel builds a small, fully valid model for unit tests.
func referenceModel() *Model {
	dev := hw.GTXTitanX()
	volt := NewVoltageTable(dev.CoreFreqs, dev.MemFreqs)
	m := &Model{
		DeviceName: dev.Name,
		Ref:        dev.DefaultConfig(),
		Beta:       [4]float64{15, 0.017, 8, 0.0126},
		OmegaCore: map[hw.Component]float64{
			hw.Int: 0.025, hw.SP: 0.030, hw.DP: 0.020,
			hw.SF: 0.045, hw.Shared: 0.020, hw.L2: 0.030,
		},
		OmegaMem:        0.0334,
		Voltages:        volt,
		L2BytesPerCycle: 700,
		Iterations:      10,
		Converged:       true,
	}
	return m
}

func TestVoltageTableRoundTrip(t *testing.T) {
	dev := hw.GTXTitanX()
	v := NewVoltageTable(dev.CoreFreqs, dev.MemFreqs)
	cfg := hw.Config{CoreMHz: 595, MemMHz: 810}
	vc, vm, err := v.At(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vc != 1 || vm != 1 {
		t.Fatal("fresh table should be all ones")
	}
	if err := v.Set(cfg, 0.9, 1.1); err != nil {
		t.Fatal(err)
	}
	vc, vm, err = v.At(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vc != 0.9 || vm != 1.1 {
		t.Fatalf("At = (%g, %g)", vc, vm)
	}
	if _, _, err := v.At(hw.Config{CoreMHz: 123, MemMHz: 810}); err == nil {
		t.Fatal("off-grid config accepted")
	}
	if err := v.Set(hw.Config{CoreMHz: 595, MemMHz: 999}, 1, 1); err == nil {
		t.Fatal("off-grid set accepted")
	}
}

func TestVoltageTableClone(t *testing.T) {
	dev := hw.GTXTitanX()
	v := NewVoltageTable(dev.CoreFreqs, dev.MemFreqs)
	c := v.Clone()
	_ = c.Set(dev.DefaultConfig(), 2, 2)
	vc, _, _ := v.At(dev.DefaultConfig())
	if vc != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestDecomposeMatchesEquations(t *testing.T) {
	m := referenceModel()
	cfg := hw.Config{CoreMHz: 595, MemMHz: 810}
	if err := m.Voltages.Set(cfg, 0.9, 1.0); err != nil {
		t.Fatal(err)
	}
	u := Utilization{hw.SP: 0.8, hw.DRAM: 0.5, hw.L2: 0.2}
	bd, err := m.Decompose(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vc, vm := 0.9, 1.0
	wantConst := m.Beta[0]*vc + vc*vc*595*m.Beta[1] + m.Beta[2]*vm + vm*vm*810*m.Beta[3]
	if !almostEq(bd.Constant, wantConst, 1e-9) {
		t.Fatalf("constant = %g, want %g", bd.Constant, wantConst)
	}
	if !almostEq(bd.Component[hw.SP], vc*vc*595*0.030*0.8, 1e-9) {
		t.Fatalf("SP power wrong")
	}
	if !almostEq(bd.Component[hw.DRAM], vm*vm*810*0.0334*0.5, 1e-9) {
		t.Fatalf("DRAM power wrong")
	}
	if bd.Component[hw.DP] != 0 {
		t.Fatal("unused component should contribute 0")
	}
	p, err := m.Predict(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(p, bd.Total(), 1e-12) {
		t.Fatal("Predict != Decompose total")
	}
}

func TestPredictOffGridConfig(t *testing.T) {
	m := referenceModel()
	if _, err := m.Predict(Utilization{}, hw.Config{CoreMHz: 1000, MemMHz: 3505}); err == nil {
		t.Fatal("off-grid prediction accepted")
	}
}

func TestPredictedCoreVoltage(t *testing.T) {
	m := referenceModel()
	freqs, vbar, err := m.PredictedCoreVoltage(3505)
	if err != nil {
		t.Fatal(err)
	}
	if len(freqs) != 16 || len(vbar) != 16 {
		t.Fatalf("ladder lengths %d/%d", len(freqs), len(vbar))
	}
	if _, _, err := m.PredictedCoreVoltage(999); err == nil {
		t.Fatal("unknown memory frequency accepted")
	}
	// Returned slices are copies.
	vbar[0] = 42
	_, again, _ := m.PredictedCoreVoltage(3505)
	if again[0] == 42 {
		t.Fatal("PredictedCoreVoltage returns internal storage")
	}
}

func TestModelValidate(t *testing.T) {
	if err := referenceModel().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(m *Model){
		"negative beta":    func(m *Model) { m.Beta[0] = -1 },
		"missing omega":    func(m *Model) { delete(m.OmegaCore, hw.SF) },
		"negative omega":   func(m *Model) { m.OmegaCore[hw.SP] = -0.1 },
		"negative omegaM":  func(m *Model) { m.OmegaMem = -1 },
		"infinite beta":    func(m *Model) { m.Beta[3] = math.Inf(1) },
		"infinite omega":   func(m *Model) { m.OmegaCore[hw.L2] = math.Inf(1) },
		"NaN omegaM":       func(m *Model) { m.OmegaMem = math.NaN() },
		"infinite voltage": func(m *Model) { m.Voltages.VCore[0][0] = math.Inf(1) },
		"NaN mem voltage":  func(m *Model) { m.Voltages.VMem[0][0] = math.NaN() },
		"nil voltages":     func(m *Model) { m.Voltages = nil },
		"zero l2 peak":     func(m *Model) { m.L2BytesPerCycle = 0 },
		"zero voltage":     func(m *Model) { m.Voltages.VCore[0][0] = 0 },
		"zero mem voltage": func(m *Model) { m.Voltages.VMem[0][0] = -1 },
	}
	for name, mod := range cases {
		m := referenceModel()
		mod(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
