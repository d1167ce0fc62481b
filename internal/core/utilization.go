// Package core implements the paper's contribution: the DVFS-aware GPU
// power model (Eqs. 3–7), the hardware-utilization metrics computed from
// CUPTI events (Eqs. 8–10), the iterative estimation algorithm of
// Section III-D, and power prediction/decomposition for unseen applications
// (Section III-E).
package core

import (
	"fmt"
	"math"

	"gpupower/internal/backend"
	"gpupower/internal/hw"
)

// Utilization holds the average utilization rate U ∈ [0,1] of each modelled
// component, as defined by paper Eqs. 8 and 9.
type Utilization map[hw.Component]float64

// Clone returns a copy of u.
func (u Utilization) Clone() Utilization {
	out := make(Utilization, len(u))
	for c, v := range u {
		out[c] = v
	}
	return out
}

// Validate checks all rates are finite and within [0, 1] (after clamping
// tolerance for event noise) and every key is a modelled component. The
// error names the first bad rate in hw.Components order, else the lowest
// invalid key, so one input always gets one message.
func (u Utilization) Validate() error {
	for _, c := range hw.Components {
		if v, ok := u[c]; ok && !(v >= 0 && v <= 1) {
			return fmt.Errorf("core: utilization of %s is %g, outside [0,1]", c, v)
		}
	}
	bad, found := hw.Component(0), false
	for c := range u {
		if !c.Valid() && (!found || c < bad) {
			bad, found = c, true
		}
	}
	if found {
		return fmt.Errorf("core: utilization has invalid component %v", bad)
	}
	return nil
}

// clamp01 limits noisy event-derived rates into the physical range. It
// passes NaN through; UtilizationFromMetrics rejects it.
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// UtilizationFromMetrics converts aggregated Table I metrics collected at
// the reference configuration into the Eq. 8–10 utilization rates.
//
// l2BytesPerCycle is the experimentally determined aggregate L2 bandwidth in
// bytes per core cycle (Section III-C: "the L2 cache peak bandwidth cannot
// be computed as trivially … it was experimentally determined with a set of
// specific L2 microbenchmarks"); see CalibrateL2BytesPerCycle.
func UtilizationFromMetrics(dev *hw.Device, ref hw.Config, m backend.Metrics, l2BytesPerCycle float64) (Utilization, error) {
	aCycles := m[backend.MetricACycles]
	if aCycles <= 0 {
		return nil, fmt.Errorf("core: non-positive active cycles %g", aCycles)
	}
	if l2BytesPerCycle <= 0 {
		return nil, fmt.Errorf("core: non-positive L2 bytes/cycle %g", l2BytesPerCycle)
	}
	seconds := aCycles / (ref.CoreMHz * 1e6)
	ws := float64(dev.WarpSize)
	sms := float64(dev.NumSMs)

	u := make(Utilization, 7)

	// Eq. 10: the SP and INT units share one warp counter; split it by the
	// per-type instruction counts.
	warpsIntSP := m[backend.MetricWarpsSPInt]
	instInt := m[backend.MetricInstInt]
	instSP := m[backend.MetricInstSP]
	var warpsInt, warpsSP float64
	if tot := instInt + instSP; tot > 0 {
		warpsInt = warpsIntSP * instInt / tot
		warpsSP = warpsIntSP * instSP / tot
	}

	// Eq. 8: U_x = AWarps_x · WarpSize / (ACycles · UnitsPerSM_x), with the
	// device-total convention (AWarps counted across all SMs, hence the SM
	// count in the denominator).
	compute := func(c hw.Component, warps float64) float64 {
		return warps * ws / (aCycles * float64(dev.UnitsPerSM[c]) * sms)
	}
	u[hw.Int] = clamp01(compute(hw.Int, warpsInt))
	u[hw.SP] = clamp01(compute(hw.SP, warpsSP))
	u[hw.DP] = clamp01(compute(hw.DP, m[backend.MetricWarpsDP]))
	u[hw.SF] = clamp01(compute(hw.SF, m[backend.MetricWarpsSF]))

	// Eq. 9: U_y = ABand_y / PeakBand_y. Sector queries are 32 B; shared
	// transactions move banks×4 B.
	sharedBytes := (m[backend.MetricSharedLoad] + m[backend.MetricSharedStore]) * float64(dev.SharedBanks) * 4
	l2Bytes := (m[backend.MetricL2Read] + m[backend.MetricL2Write]) * 32
	dramBytes := (m[backend.MetricDRAMRead] + m[backend.MetricDRAMWrite]) * 32

	u[hw.Shared] = clamp01(sharedBytes / seconds / dev.PeakSharedBandwidth(ref.CoreMHz))
	u[hw.L2] = clamp01(l2Bytes / seconds / (ref.CoreMHz * 1e6 * l2BytesPerCycle))
	u[hw.DRAM] = clamp01(dramBytes / seconds / dev.PeakDRAMBandwidth(ref.MemMHz))

	// A NaN counter, or counters whose ratios overflow to Inf/Inf, leave a
	// NaN rate that no clamp can repair.
	for _, c := range hw.Components {
		if math.IsNaN(u[c]) {
			return nil, fmt.Errorf("core: metrics give a NaN %s utilization", c)
		}
	}
	return u, nil
}
