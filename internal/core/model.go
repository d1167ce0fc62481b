package core

import (
	"fmt"
	"math"

	"gpupower/internal/hw"
)

// CoreOmegaOrder fixes the ordering of the core-domain component
// coefficients in the parameter vector X = [β0 β1 β2 β3 ω… ω_mem].
var CoreOmegaOrder = []hw.Component{hw.Int, hw.SP, hw.DP, hw.SF, hw.Shared, hw.L2}

// VoltageTable stores the estimated normalized voltages per configuration.
// V̄core may depend on both frequencies (the paper predicts core-voltage
// differences across memory frequencies on the GTX Titan X); V̄mem is
// indexed the same way for symmetry.
type VoltageTable struct {
	// CoreFreqs and MemFreqs mirror the device ladders (ascending MHz).
	CoreFreqs []float64
	MemFreqs  []float64
	// VCore[mi][ci] is V̄core at (CoreFreqs[ci], MemFreqs[mi]); VMem likewise.
	VCore [][]float64
	VMem  [][]float64
}

// NewVoltageTable returns a table initialized to V̄ = 1 everywhere.
func NewVoltageTable(coreFreqs, memFreqs []float64) *VoltageTable {
	t := &VoltageTable{
		CoreFreqs: append([]float64(nil), coreFreqs...),
		MemFreqs:  append([]float64(nil), memFreqs...),
	}
	for range memFreqs {
		vc := make([]float64, len(coreFreqs))
		vm := make([]float64, len(coreFreqs))
		for i := range vc {
			vc[i], vm[i] = 1, 1
		}
		t.VCore = append(t.VCore, vc)
		t.VMem = append(t.VMem, vm)
	}
	return t
}

func (t *VoltageTable) indexOf(cfg hw.Config) (mi, ci int, err error) {
	mi, ci = -1, -1
	for i, f := range t.MemFreqs {
		if f == cfg.MemMHz { //lint:ignore floateq ladder lookup: table frequencies are copied verbatim from the device catalog, so equality is exact by construction
			mi = i
			break
		}
	}
	for i, f := range t.CoreFreqs {
		if f == cfg.CoreMHz { //lint:ignore floateq ladder lookup: table frequencies are copied verbatim from the device catalog, so equality is exact by construction
			ci = i
			break
		}
	}
	if mi < 0 || ci < 0 {
		//gpower:allocs cold error path: only an off-ladder configuration lands here
		return 0, 0, fmt.Errorf("core: configuration %v not in voltage table", cfg)
	}
	return mi, ci, nil
}

// At returns (V̄core, V̄mem) for a ladder configuration.
func (t *VoltageTable) At(cfg hw.Config) (vc, vm float64, err error) {
	mi, ci, err := t.indexOf(cfg)
	if err != nil {
		return 0, 0, err
	}
	return t.VCore[mi][ci], t.VMem[mi][ci], nil
}

// Set stores (V̄core, V̄mem) for a ladder configuration.
func (t *VoltageTable) Set(cfg hw.Config, vc, vm float64) error {
	mi, ci, err := t.indexOf(cfg)
	if err != nil {
		return err
	}
	t.VCore[mi][ci] = vc
	t.VMem[mi][ci] = vm
	return nil
}

// Clone deep-copies the table.
func (t *VoltageTable) Clone() *VoltageTable {
	c := NewVoltageTable(t.CoreFreqs, t.MemFreqs)
	c.CopyFrom(t)
	return c
}

// CopyFrom copies src's voltage entries into t, which must have the same
// ladder shape. It is the allocation-free sibling of Clone, used by the
// estimator to keep its previous-iteration snapshot on reused storage.
func (t *VoltageTable) CopyFrom(src *VoltageTable) {
	if len(t.VCore) != len(src.VCore) || len(t.CoreFreqs) != len(src.CoreFreqs) {
		panic(fmt.Sprintf("core: CopyFrom shape mismatch %dx%d vs %dx%d",
			len(src.MemFreqs), len(src.CoreFreqs), len(t.MemFreqs), len(t.CoreFreqs)))
	}
	for mi := range src.VCore {
		copy(t.VCore[mi], src.VCore[mi])
		copy(t.VMem[mi], src.VMem[mi])
	}
}

// Model is the fitted DVFS-aware power model of one device (Eqs. 6–7 with
// the voltage tables estimated by the Section III-D algorithm).
//
// A fitted model is immutable: prediction surfaces are memoized by its
// identity (surface.go), so an edit goes into a copy. A struct copy shares
// OmegaCore and Voltages with the original; replace them in the copy
// rather than writing through them.
type Model struct {
	DeviceName string
	Ref        hw.Config

	// Beta are [β0, β1, β2, β3]: core static, core idle-dynamic, memory
	// static, memory idle-dynamic (all normalized to the reference voltage).
	Beta [4]float64

	// OmegaCore are the dynamic coefficients of the core-domain components;
	// OmegaMem is ω_mem for DRAM.
	OmegaCore map[hw.Component]float64
	OmegaMem  float64

	// Voltages holds the estimated V̄ for every ladder configuration.
	Voltages *VoltageTable

	// L2BytesPerCycle is the experimentally calibrated L2 peak bandwidth
	// used when converting events to utilizations.
	L2BytesPerCycle float64

	// Iterations and Converged report how the Section III-D loop ended.
	Iterations int
	Converged  bool
}

// Validate checks the model for physical consistency: finite non-negative
// β and ω, a positive L2 peak and finite positive voltages.
func (m *Model) Validate() error {
	for i, b := range m.Beta {
		if !finiteNonNeg(b) {
			return fmt.Errorf("core: β%d = %g is not physical", i, b)
		}
	}
	for _, c := range CoreOmegaOrder {
		w, ok := m.OmegaCore[c]
		if !ok {
			return fmt.Errorf("core: missing ω for %s", c)
		}
		if !finiteNonNeg(w) {
			return fmt.Errorf("core: ω_%s = %g is not physical", c, w)
		}
	}
	if !finiteNonNeg(m.OmegaMem) {
		return fmt.Errorf("core: ω_mem = %g is not physical", m.OmegaMem)
	}
	if m.Voltages == nil {
		return fmt.Errorf("core: model has no voltage table")
	}
	if !(m.L2BytesPerCycle > 0) || math.IsInf(m.L2BytesPerCycle, 1) {
		return fmt.Errorf("core: L2 bytes/cycle %g must be finite and positive", m.L2BytesPerCycle)
	}
	for mi := range m.Voltages.VCore {
		for ci := range m.Voltages.VCore[mi] {
			if v := m.Voltages.VCore[mi][ci]; !finitePositive(v) {
				return fmt.Errorf("core: V̄core %g at index (%d,%d) not finite and positive", v, mi, ci)
			}
			if v := m.Voltages.VMem[mi][ci]; !finitePositive(v) {
				return fmt.Errorf("core: V̄mem %g at index (%d,%d) not finite and positive", v, mi, ci)
			}
		}
	}
	return nil
}

// finiteNonNeg reports whether v is a finite, non-negative coefficient.
func finiteNonNeg(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// finitePositive reports whether v is a finite, positive value (a
// normalized voltage).
func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// Breakdown is the model's power decomposition at one configuration
// (paper Figs. 5B and 10): the constant share (static + idle V-F power of
// both domains) plus each component's dynamic power.
type Breakdown struct {
	Config    hw.Config
	Constant  float64
	Component map[hw.Component]float64
}

// Total returns the total predicted power of the breakdown. The component
// map is folded in canonical component order (hw.SumComponents) so the float
// sum is bitwise-reproducible across runs — map iteration order is
// randomized and float addition is not associative.
func (b *Breakdown) Total() float64 {
	return b.Constant + hw.SumComponents(b.Component)
}

// Decompose predicts the per-part power of an application with utilization u
// at configuration cfg (must be a ladder configuration of the fitted device).
func (m *Model) Decompose(u Utilization, cfg hw.Config) (*Breakdown, error) {
	vc, vm, err := m.Voltages.At(cfg)
	if err != nil {
		return nil, err
	}
	b := &Breakdown{
		Config:    cfg,
		Component: make(map[hw.Component]float64, 7),
	}
	// Eq. 6 constant part: β0·V̄c + V̄c²·f_c·β1; Eq. 7: β2·V̄m + V̄m²·f_m·β3.
	b.Constant = m.Beta[0]*vc + vc*vc*cfg.CoreMHz*m.Beta[1] +
		m.Beta[2]*vm + vm*vm*cfg.MemMHz*m.Beta[3]
	for _, c := range CoreOmegaOrder {
		b.Component[c] = vc * vc * cfg.CoreMHz * m.OmegaCore[c] * u[c]
	}
	b.Component[hw.DRAM] = vm * vm * cfg.MemMHz * m.OmegaMem * u[hw.DRAM]
	return b, nil
}

// Predict returns the total predicted power of an application with
// utilization u at configuration cfg.
//
// This is a serving hot path (every gpowerd prediction that misses the
// surface cache lands here), so it evaluates on flattened utilization and
// coefficient blocks instead of building a Breakdown: zero allocations in
// the steady state, and bitwise-identical to Decompose().Total() — the
// surface tests pin the equality of the two paths.
//
//gpower:noalloc warm predictions allocate only on the off-ladder error path
func (m *Model) Predict(u Utilization, cfg hw.Config) (float64, error) {
	uf := flattenUtil(u)
	om := m.flatOmega()
	return m.predictFlat(&uf, &om, cfg)
}

// PredictedCoreVoltage returns the estimated V̄core ladder at a memory
// frequency, for the Fig. 6 voltage-validation plot.
func (m *Model) PredictedCoreVoltage(memMHz float64) (coreFreqs, vbar []float64, err error) {
	for mi, f := range m.Voltages.MemFreqs {
		if f == memMHz { //lint:ignore floateq ladder lookup: callers pass catalog frequencies, which the table stores verbatim
			return append([]float64(nil), m.Voltages.CoreFreqs...),
				append([]float64(nil), m.Voltages.VCore[mi]...), nil
		}
	}
	return nil, nil, fmt.Errorf("core: memory frequency %g MHz not in model", memMHz)
}
