package core

import (
	"context"
	"fmt"
	"math"

	"gpupower/internal/backend"
	"gpupower/internal/hw"
	"gpupower/internal/linalg"
)

// EstimatorOptions tunes the Section III-D iterative algorithm. The zero
// value is not usable; call DefaultEstimatorOptions.
type EstimatorOptions struct {
	// MaxIterations bounds the step-2/step-3 alternation (the paper's
	// algorithm "converged in less than 50 iterations").
	MaxIterations int
	// Tol is the convergence threshold on the largest voltage change and on
	// the relative parameter change between iterations.
	Tol float64
	// SSETol declares convergence when the relative change of the training
	// sum of squared errors between iterations falls below it. The
	// alternation is a (block-)coordinate descent on the SSE, so a flat
	// objective is the principled stopping signal even when weakly
	// identifiable parameters (e.g. the β0/β2 static split) keep drifting
	// along the valley floor.
	SSETol float64
	// VoltageLo/VoltageHi bound the normalized voltage search box in step 2.
	VoltageLo, VoltageHi float64
	// OverRelax extrapolates each voltage update:
	// V ← V_prev + η·(V_new − V_prev). The X↔V̄ alternation descends a
	// shallow valley (the static-power split between domains is weakly
	// identifiable), so plain alternation (η = 1) crawls; η ≈ 1.8
	// accelerates it substantially without destabilizing the quartic
	// per-configuration objectives. Values ≤ 1 disable acceleration.
	OverRelax float64

	// Ablation switches (all false for the paper's algorithm):
	// DisableVoltage pins V̄ ≡ 1 everywhere (a frequency-only model).
	DisableVoltage bool
	// LinearVoltage pins V̄ = f/f_ref (the linear-scaling assumption of
	// pre-Maxwell models the paper argues against).
	LinearVoltage bool
	// DisableMonotonic skips the Eq. 12 monotonicity constraint on V̄(f).
	DisableMonotonic bool

	// KnownVoltages, when non-nil, supplies measured normalized voltages
	// for every configuration; the paper's simplification then applies:
	// "if there is a previous information regarding the voltage levels of
	// each domain at any given frequency configuration, the proposed
	// methodology can be simplified into a single execution of step 3, by
	// utilizing the real voltage values" (Section III-D). Incompatible with
	// the voltage ablation switches.
	KnownVoltages *VoltageTable

	// Trace, when non-nil, receives the per-iteration convergence deltas
	// (used by the convergence experiment and for diagnostics).
	Trace func(iter int, voltDelta, paramDelta, sse float64)
}

// DefaultEstimatorOptions returns the paper's settings.
func DefaultEstimatorOptions() *EstimatorOptions {
	return &EstimatorOptions{
		MaxIterations: 50,
		Tol:           1e-3,
		SSETol:        1e-4,
		VoltageLo:     0.5,
		VoltageHi:     1.8,
		OverRelax:     1.8,
	}
}

// nParams is the length of X = [β0 β1 β2 β3 ω_int ω_sp ω_dp ω_sf ω_sh ω_l2 ω_mem].
const nParams = 11

// paramsToModel unpacks the X vector into model fields.
func paramsToModel(m *Model, x []float64) {
	copy(m.Beta[:], x[:4])
	m.OmegaCore = make(map[hw.Component]float64, len(CoreOmegaOrder))
	for i, c := range CoreOmegaOrder {
		m.OmegaCore[c] = x[4+i]
	}
	m.OmegaMem = x[10]
}

// nUtil is the length of a benchmark's utilization block: the six
// CoreOmegaOrder components followed by DRAM.
const nUtil = 7

// nFeat is the width of the feature matrix Φ: a constant, then the nUtil
// utilizations.
const nFeat = 1 + nUtil

// estimatorWorkspace carries every buffer the Section III-D alternation
// reuses across iterations (DESIGN.md §10): the feature matrix Φ and its
// QR, the projected power, the step-1/step-3 design and its NNLS workspace,
// and the step-2 scratch. One workspace serves one Estimate call; nothing
// in it is goroutine-safe.
//
// Utilizations are per benchmark, not per configuration, so the design row
// of benchmark b at configuration c is Φ_b·M_c: Φ_b = [1, U_b] (nFeat) and
// M_c (nFeat × nParams) holds only c's vc, s1 = vc²·fc, vm and s3 = vm²·fm.
// With Φ = Q·R factored once per dataset, Σ_c ‖Φ·M_c·x − p_c‖² equals
// Σ_c ‖R·M_c·x − (Qᵀp_c)[:nFeat]‖² plus the energy of each p_c outside Φ's
// span. Steps 1 and 3 therefore solve nFeat rows per configuration instead
// of one per benchmark, and the training SSE sums the same blocks.
type estimatorWorkspace struct {
	d  *Dataset
	nb int

	// phi is Φ: row b is [1, U_b] for b < nb; when nb < nFeat it is padded
	// with zero rows to a square, which adds nothing to any objective.
	phi     *linalg.Matrix
	phiQR   *linalg.QRWorkspace
	phiCap  int                    // row capacity of phiQR
	r       [nFeat * nFeat]float64 // R, row-major
	qtp     []float64              // (Qᵀp_c)[:nFeat] per configuration, stride nFeat
	outSpan []float64              // ‖p_c − Q·Qᵀp_c‖² per configuration
	psq     []float64              // ‖p_c‖² per configuration
	y       []float64              // Qᵀp scratch, one Φ column long

	a    *linalg.Matrix // nFeat·len(configIdx) × nParams projected design
	bvec []float64
	nnls *linalg.NNLSWorkspace

	A, B []float64 // step-2 per-benchmark precomputes
	mono monotonicProjector
}

// growFloats returns s resized to exactly n entries, reusing its backing
// array when the capacity suffices. Contents are unspecified; every caller
// overwrites the slice before reading it.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// newEstimatorWorkspace sizes a workspace for dataset d and projects it.
func newEstimatorWorkspace(d *Dataset) *estimatorWorkspace {
	ws := &estimatorWorkspace{}
	ws.reset(d)
	return ws
}

// reset retargets the workspace at dataset d, growing buffers only when d
// needs more capacity than any dataset seen before, and re-derives all
// dataset-dependent state: Φ, its QR and the projected power. A reused
// workspace therefore produces bitwise-identical fits to a fresh one: every
// buffer is either fully rewritten here or fully rewritten by the assembly
// loops before it is read. This is what lets fleet fitting hold one
// workspace per worker across many heterogeneous device fits.
func (ws *estimatorWorkspace) reset(d *Dataset) {
	nb, nc := len(d.Benchmarks), len(d.Configs)
	rows := max(nb, nFeat)
	ws.d = d
	ws.nb = nb
	if ws.phi == nil {
		ws.phi = linalg.NewMatrix(rows, nFeat)
		ws.a = linalg.NewMatrix(nFeat*nc, nParams)
		ws.nnls = linalg.NewNNLSWorkspace(nFeat*nc, nParams)
	} else {
		ws.phi.Reshape(rows, nFeat)
		ws.a.Reshape(nFeat*nc, nParams)
		ws.nnls.Ensure(nFeat*nc, nParams)
	}
	if rows > ws.phiCap {
		ws.phiQR = linalg.NewQRWorkspace(rows, nFeat)
		ws.phiCap = rows
	}
	ws.bvec = growFloats(ws.bvec, nFeat*nc)
	ws.qtp = growFloats(ws.qtp, nFeat*nc)
	ws.outSpan = growFloats(ws.outSpan, nc)
	ws.psq = growFloats(ws.psq, nc)
	ws.y = growFloats(ws.y, rows)
	ws.A = growFloats(ws.A, nb)
	ws.B = growFloats(ws.B, nb)

	for bi := 0; bi < rows; bi++ {
		row := ws.phi.RowView(bi)
		if bi >= nb {
			clear(row)
			continue
		}
		u := d.Benchmarks[bi].Util
		row[0] = 1
		for i, c := range CoreOmegaOrder {
			row[1+i] = u[c]
		}
		row[nFeat-1] = u[hw.DRAM]
	}
	// Φ is rows × nFeat with rows ≥ nFeat, within phiQR's capacity.
	_ = ws.phiQR.Factorize(ws.phi)
	for i := 0; i < nFeat; i++ {
		for j := 0; j < nFeat; j++ {
			ws.r[i*nFeat+j] = ws.phiQR.R(i, j)
		}
	}
	for fi := 0; fi < nc; fi++ {
		y := ws.y
		clear(y[nb:])
		var psq float64
		for bi := 0; bi < nb; bi++ {
			p := d.Power[bi][fi]
			y[bi] = p
			psq += p * p
		}
		_ = ws.phiQR.ApplyQT(y) // y is one Φ column long
		copy(ws.qtp[fi*nFeat:(fi+1)*nFeat], y[:nFeat])
		var out float64
		for _, v := range y[nFeat:] {
			out += v * v
		}
		ws.outSpan[fi] = out
		ws.psq[fi] = psq
	}
}

// ub returns benchmark bi's utilization block, a view of Φ's row.
func (ws *estimatorWorkspace) ub(bi int) []float64 {
	return ws.phi.RowView(bi)[1:]
}

// solveXInto performs the (non-negative) least-squares estimation of X over
// the given configuration indices, using the current voltage table (step 1
// with V̄ ≡ 1, step 3 with the estimated voltages), writing the parameter
// vector into dst (len nParams). The NNLS starts from the support of dst's
// entry value (linalg.NNLSWorkspace.WarmSolveInto): step 3 passes the
// previous iteration's X, whose support barely moves between iterations,
// while a zero dst — step 1, the known-voltage and ablation fits — solves
// cold. The fitted bits are the same either way (DESIGN.md §10.1).
//
// It solves the projected system: configuration c contributes the nFeat
// rows R·M_c and right-hand side (Qᵀp_c)[:nFeat]. That system has the full
// design's AᵀA and Aᵀb, and hence its gradients, but entries about √nb
// times larger, so the NNLS stopping rule is given the full design's
// MaxAbs(A)·‖b‖ (WarmSolveScaledInto): the projection then stops where the
// full solve would. Utilizations lie in [0, 1] (Dataset.Validate), so the
// full design's largest entry is the largest vc, s1, vm or s3.
func (ws *estimatorWorkspace) solveXInto(dst []float64, volt *VoltageTable, configIdx []int) error {
	rows := nFeat * len(configIdx)
	a, b := ws.a, ws.bvec[:rows]
	a.Reshape(rows, nParams)
	var maxAbs, psq float64
	for k, fi := range configIdx {
		cfg := ws.d.Configs[fi]
		vc, vm, err := volt.At(cfg)
		if err != nil {
			return err
		}
		s1 := vc * vc * cfg.CoreMHz
		s3 := vm * vm * cfg.MemMHz
		maxAbs = max(maxAbs, math.Abs(vc), math.Abs(s1), math.Abs(vm), math.Abs(s3))
		psq += ws.psq[fi]
		for i := 0; i < nFeat; i++ {
			ri := ws.r[i*nFeat : (i+1)*nFeat]
			row := a.RowView(k*nFeat + i)
			row[0] = ri[0] * vc
			row[1] = ri[0] * s1
			row[2] = ri[0] * vm
			row[3] = ri[0] * s3
			for j := 0; j < nUtil-1; j++ {
				row[4+j] = ri[1+j] * s1
			}
			row[nParams-1] = ri[nFeat-1] * s3
		}
		copy(b[k*nFeat:(k+1)*nFeat], ws.qtp[fi*nFeat:(fi+1)*nFeat])
	}
	return ws.nnls.WarmSolveScaledInto(dst, a, b, maxAbs*math.Sqrt(psq))
}

// step2Moments are the voltage- and frequency-independent parts of step 2's
// per-configuration objectives for one parameter vector X.
type step2Moments struct {
	beta0, beta2, nb                float64
	sumA, sumB, sumA2, sumB2, sumAB float64
}

// moments fills ws.A and ws.B for X, A_b = β1 + Σ ω_i U_ib and
// B_b = β3 + ω_mem·U_dram,b (reading Φ's utilization blocks, in the
// accumulation order of the historical map-walking loop), and returns
// their moments.
func (ws *estimatorWorkspace) moments(x []float64) step2Moments {
	A, B := ws.A, ws.B
	for bi := 0; bi < ws.nb; bi++ {
		ub := ws.ub(bi)
		A[bi] = x[1]
		for i := 0; i < nUtil-1; i++ {
			A[bi] += x[4+i] * ub[i]
		}
		B[bi] = x[3] + x[nParams-1]*ub[nUtil-1]
	}
	m := step2Moments{beta0: x[0], beta2: x[2], nb: float64(ws.nb)}
	for bi := 0; bi < ws.nb; bi++ {
		m.sumA += A[bi]
		m.sumB += B[bi]
		m.sumA2 += A[bi] * A[bi]
		m.sumB2 += B[bi] * B[bi]
		m.sumAB += A[bi] * B[bi]
	}
	return m
}

// quartic compiles configuration fi's step-2 objective
// Σ_b (P_b − β0·vc − fc·A_b·vc² − β2·vm − fm·B_b·vm²)² into its thirteen
// monomial coefficients, from m and one fused pass over the benchmarks'
// power at fi.
func (ws *estimatorWorkspace) quartic(fi int, m *step2Moments) linalg.Quartic2D {
	cfg := ws.d.Configs[fi]
	fc, fm := cfg.CoreMHz, cfg.MemMHz
	var sumD, sumD2, sumDA, sumDB float64
	for bi := 0; bi < ws.nb; bi++ {
		pd := ws.d.Power[bi][fi]
		sumD += pd
		sumD2 += pd * pd
		sumDA += pd * ws.A[bi]
		sumDB += pd * ws.B[bi]
	}
	beta0, beta2 := m.beta0, m.beta2
	return linalg.Quartic2D{
		C00: sumD2,
		C10: -2 * beta0 * sumD,
		C20: m.nb*beta0*beta0 - 2*fc*sumDA,
		C30: 2 * beta0 * fc * m.sumA,
		C40: fc * fc * m.sumA2,
		C01: -2 * beta2 * sumD,
		C02: m.nb*beta2*beta2 - 2*fm*sumDB,
		C03: 2 * beta2 * fm * m.sumB,
		C04: fm * fm * m.sumB2,
		C11: 2 * m.nb * beta0 * beta2,
		C12: 2 * beta0 * fm * m.sumB,
		C21: 2 * beta2 * fc * m.sumA,
		C22: 2 * fc * fm * m.sumAB,
	}
}

// solveVoltages performs step 2: for every configuration, estimate
// (V̄core, V̄mem) by minimizing the squared prediction error over the
// benchmark set, then project each domain's ladder onto the monotonicity
// constraint (Eq. 12) and renormalize so V̄(ref) = 1.
//
// Each configuration's objective is compiled into a closed-form bivariate
// quartic (quartic, one O(nb) pass) and minimized by linalg.Quartic2D's
// projected Newton method, five to six O(1) steps (DESIGN.md §10.2b). The
// configurations run in one serial loop: at this cost a per-configuration
// fan-out loses on every catalog device (DESIGN.md §7).
func (ws *estimatorWorkspace) solveVoltages(x []float64, volt *VoltageTable, opts *EstimatorOptions) error {
	d := ws.d
	m := ws.moments(x)
	for fi, cfg := range d.Configs {
		if cfg == d.Ref {
			if err := volt.Set(cfg, 1, 1); err != nil {
				return err
			}
			continue
		}
		q := ws.quartic(fi, &m)
		vc, vm, err := q.Minimize(opts.VoltageLo, opts.VoltageHi,
			opts.VoltageLo, opts.VoltageHi, 1e-12)
		if err != nil {
			return err
		}
		if err := volt.Set(cfg, vc, vm); err != nil {
			return err
		}
	}

	if !opts.DisableMonotonic {
		if err := ws.mono.projectMonotonic(volt); err != nil {
			return err
		}
	}
	return renormalize(volt, d.Ref)
}

// monotonicProjector is projectMonotonic's reusable scratch: the PAVA
// block stack and one memory-ladder column. A held projector projects
// without allocating; the zero value is ready to use.
type monotonicProjector struct {
	pava linalg.PAVA
	col  []float64
}

// projectMonotonic enforces Eq. 12's constraint: for each memory frequency,
// V̄core must be non-decreasing along the core ladder; for each core
// frequency, V̄mem non-decreasing along the memory ladder.
func (p *monotonicProjector) projectMonotonic(volt *VoltageTable) error {
	for mi := range volt.VCore {
		if err := p.pava.FitInPlace(volt.VCore[mi], nil); err != nil {
			return err
		}
	}
	nc := len(volt.CoreFreqs)
	nm := len(volt.MemFreqs)
	p.col = growFloats(p.col, nm)
	for ci := 0; ci < nc; ci++ {
		for mi := 0; mi < nm; mi++ {
			p.col[mi] = volt.VMem[mi][ci]
		}
		if err := p.pava.FitInPlace(p.col, nil); err != nil {
			return err
		}
		for mi := 0; mi < nm; mi++ {
			volt.VMem[mi][ci] = p.col[mi]
		}
	}
	return nil
}

// renormalize rescales each domain's table so V̄ = 1 exactly at the
// reference configuration (the Eq. 5 normalization), preserving the
// relative shape the optimizer found.
func renormalize(volt *VoltageTable, ref hw.Config) error {
	vcRef, vmRef, err := volt.At(ref)
	if err != nil {
		return err
	}
	if vcRef <= 0 || vmRef <= 0 {
		return fmt.Errorf("core: non-positive reference voltage (%g, %g)", vcRef, vmRef)
	}
	for mi := range volt.VCore {
		for ci := range volt.VCore[mi] {
			volt.VCore[mi][ci] /= vcRef
			volt.VMem[mi][ci] /= vmRef
		}
	}
	return nil
}

// initialConfigs picks the paper's F1, F2, F3 for step 1: the reference,
// one with a different core frequency, one with a different memory
// frequency (when the device has more than one memory level). The extreme
// ladder ends give the regression maximal frequency contrast.
func initialConfigs(d *Dataset) ([]int, error) {
	ref, err := d.configIndex(d.Ref)
	if err != nil {
		return nil, err
	}
	idx := []int{ref}
	// F2: same memory frequency, most distant core frequency.
	bestF2, bestDist := -1, 0.0
	for i, cfg := range d.Configs {
		//lint:ignore floateq ladder frequencies are exact catalog constants; F2 selection needs exact same-memory-level matching
		if cfg.MemMHz == d.Ref.MemMHz && cfg.CoreMHz != d.Ref.CoreMHz {
			if dist := math.Abs(cfg.CoreMHz - d.Ref.CoreMHz); dist > bestDist {
				bestF2, bestDist = i, dist
			}
		}
	}
	if bestF2 < 0 {
		return nil, fmt.Errorf("core: dataset has no second core frequency at the reference memory level")
	}
	idx = append(idx, bestF2)
	// F3: same core frequency, most distant memory frequency (optional for
	// single-memory-level devices like the Tesla K40c).
	bestF3, bestDist := -1, 0.0
	for i, cfg := range d.Configs {
		//lint:ignore floateq ladder frequencies are exact catalog constants; F3 selection needs exact same-core-level matching
		if cfg.CoreMHz == d.Ref.CoreMHz && cfg.MemMHz != d.Ref.MemMHz {
			if dist := math.Abs(cfg.MemMHz - d.Ref.MemMHz); dist > bestDist {
				bestF3, bestDist = i, dist
			}
		}
	}
	if bestF3 >= 0 {
		idx = append(idx, bestF3)
	}
	return idx, nil
}

// applyFixedVoltages fills the table for the two ablation modes.
func applyFixedVoltages(d *Dataset, volt *VoltageTable, opts *EstimatorOptions) error {
	for _, cfg := range d.Configs {
		vc, vm := 1.0, 1.0
		if opts.LinearVoltage {
			vc = cfg.CoreMHz / d.Ref.CoreMHz
			vm = cfg.MemMHz / d.Ref.MemMHz
		}
		if err := volt.Set(cfg, vc, vm); err != nil {
			return err
		}
	}
	return nil
}

// FitWorkspace is a reusable, opaque estimation workspace: the feature
// matrix and its QR, the projected design, the NNLS buffers and the step-2
// scratch of the Section III-D alternation, preserved across EstimateWith
// calls. Buffers grow to the largest dataset seen and are re-derived per
// fit, so reuse never changes a fitted bit (the fleet equivalence tests pin
// this). A workspace is single-goroutine state: confine each instance to
// one worker (fleet.FitDatasets keeps one per pool worker) or guard it
// externally.
type FitWorkspace struct {
	ws *estimatorWorkspace
}

// NewFitWorkspace returns an empty workspace; buffers are sized lazily by
// the first fit.
func NewFitWorkspace() *FitWorkspace { return &FitWorkspace{} }

// prepare retargets the workspace at dataset d.
func (fw *FitWorkspace) prepare(d *Dataset) *estimatorWorkspace {
	if fw.ws == nil {
		fw.ws = newEstimatorWorkspace(d)
	} else {
		fw.ws.reset(d)
	}
	return fw.ws
}

// Estimate runs the Section III-D algorithm on a training dataset and
// returns the fitted DVFS-aware power model. Cancellation is checked at
// iteration granularity: a canceled context aborts the alternation promptly
// with an error wrapping ctx.Err().
func Estimate(ctx context.Context, d *Dataset, opts *EstimatorOptions) (*Model, error) {
	return EstimateWith(ctx, d, opts, nil)
}

// EstimateWith is Estimate on a caller-owned reusable workspace (nil fw
// behaves like Estimate: a fresh workspace per call). Fleet fitting holds
// one FitWorkspace per worker so back-to-back fits of same-shaped datasets
// run with zero steady-state workspace allocation.
func EstimateWith(ctx context.Context, d *Dataset, opts *EstimatorOptions, fw *FitWorkspace) (*Model, error) {
	if opts == nil {
		opts = DefaultEstimatorOptions()
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxIterations < 1 {
		return nil, fmt.Errorf("core: MaxIterations must be >= 1")
	}
	if err := backend.CheckContext(ctx, "core: estimate"); err != nil {
		return nil, err
	}

	volt := NewVoltageTable(d.Device.CoreFreqs, d.Device.MemFreqs)
	m := &Model{
		DeviceName:      d.Device.Name,
		Ref:             d.Ref,
		Voltages:        volt,
		L2BytesPerCycle: d.L2BytesPerCycle,
	}

	allConfigs := make([]int, len(d.Configs))
	for i := range d.Configs {
		allConfigs[i] = i
	}

	// One workspace per fit — or the caller's reusable one: design matrix,
	// NNLS buffers and scratch are sized here and reused by every iteration
	// below (DESIGN.md §10).
	if fw == nil {
		fw = NewFitWorkspace()
	}
	ws := fw.prepare(d)
	x := make([]float64, nParams)

	// Known-voltage simplification (Section III-D): copy the measured
	// voltages, each checked, and run step 3 once.
	if opts.KnownVoltages != nil {
		if opts.DisableVoltage || opts.LinearVoltage {
			return nil, fmt.Errorf("core: KnownVoltages is incompatible with the voltage ablations")
		}
		for _, cfg := range d.Configs {
			vc, vm, err := opts.KnownVoltages.At(cfg)
			if err != nil {
				return nil, fmt.Errorf("core: known voltages: %w", err)
			}
			if !finitePositive(vc) || !finitePositive(vm) {
				return nil, fmt.Errorf("core: KnownVoltages at %.0f/%.0f MHz: V̄core %g, V̄mem %g must be finite and positive",
					cfg.CoreMHz, cfg.MemMHz, vc, vm)
			}
			if err := volt.Set(cfg, vc, vm); err != nil {
				return nil, err
			}
		}
		if err := ws.solveXInto(x, volt, allConfigs); err != nil {
			return nil, err
		}
		paramsToModel(m, x)
		m.Iterations = 1
		m.Converged = true
		return validated(m)
	}

	// Ablation modes bypass the alternation: fix V̄ and run step 3 once.
	if opts.DisableVoltage || opts.LinearVoltage {
		if err := applyFixedVoltages(d, volt, opts); err != nil {
			return nil, err
		}
		if err := ws.solveXInto(x, volt, allConfigs); err != nil {
			return nil, err
		}
		paramsToModel(m, x)
		m.Iterations = 1
		m.Converged = true
		return validated(m)
	}

	// Step 1: initial X from {F1, F2, F3} with V̄ ≡ 1.
	init, err := initialConfigs(d)
	if err != nil {
		return nil, err
	}
	if err := ws.solveXInto(x, volt, init); err != nil {
		return nil, fmt.Errorf("core: step 1 failed: %w", err)
	}

	// Steps 2–4: alternate voltage and parameter estimation. The previous-
	// iteration snapshots live on reused storage (CopyFrom, append into the
	// same backing array), so the loop body allocates nothing.
	prevX := append([]float64(nil), x...)
	prevVolt := volt.Clone()
	prevSSE := math.Inf(1)
	for iter := 1; iter <= opts.MaxIterations; iter++ {
		if ctx.Err() != nil {
			return nil, backend.CheckContext(ctx, fmt.Sprintf("core: estimate (iteration %d)", iter))
		}
		m.Iterations = iter
		if err := ws.solveVoltages(x, volt, opts); err != nil {
			return nil, fmt.Errorf("core: step 2 (iteration %d) failed: %w", iter, err)
		}
		if opts.OverRelax > 1 && iter > 1 {
			if err := overRelax(prevVolt, volt, opts, d.Ref, &ws.mono); err != nil {
				return nil, fmt.Errorf("core: over-relaxation (iteration %d) failed: %w", iter, err)
			}
		}
		if err := ws.solveXInto(x, volt, allConfigs); err != nil {
			return nil, fmt.Errorf("core: step 3 (iteration %d) failed: %w", iter, err)
		}

		dv := voltageDelta(prevVolt, volt)
		dx := relDelta(prevX, x)
		sse, err := ws.trainingSSE(volt, x)
		if err != nil {
			return nil, fmt.Errorf("core: SSE evaluation (iteration %d) failed: %w", iter, err)
		}
		if opts.Trace != nil {
			opts.Trace(iter, dv, dx, sse)
		}
		sseFlat := prevSSE > 0 && math.Abs(prevSSE-sse)/prevSSE < opts.SSETol
		if (dv < opts.Tol && dx < opts.Tol) || (iter > 1 && sseFlat) {
			m.Converged = true
			break
		}
		prevSSE = sse
		prevX = append(prevX[:0], x...)
		prevVolt.CopyFrom(volt)
	}

	paramsToModel(m, x)
	return validated(m)
}

// validated returns m, or nil and the error when m fails Model.Validate:
// a fit never hands back a model next to an error.
func validated(m *Model) (*Model, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// overRelax extrapolates the voltage table along the last update direction,
// re-projects onto the monotonicity cone (on mono's scratch) and restores
// the reference normalization.
func overRelax(prev, volt *VoltageTable, opts *EstimatorOptions, ref hw.Config, mono *monotonicProjector) error {
	eta := opts.OverRelax
	clamp := func(v float64) float64 {
		if v < opts.VoltageLo {
			return opts.VoltageLo
		}
		if v > opts.VoltageHi {
			return opts.VoltageHi
		}
		return v
	}
	for mi := range volt.VCore {
		for ci := range volt.VCore[mi] {
			volt.VCore[mi][ci] = clamp(prev.VCore[mi][ci] + eta*(volt.VCore[mi][ci]-prev.VCore[mi][ci]))
			volt.VMem[mi][ci] = clamp(prev.VMem[mi][ci] + eta*(volt.VMem[mi][ci]-prev.VMem[mi][ci]))
		}
	}
	if !opts.DisableMonotonic {
		if err := mono.projectMonotonic(volt); err != nil {
			return err
		}
	}
	return renormalize(volt, ref)
}

// trainingSSE evaluates the sum of squared prediction errors of parameter
// vector x with voltage table volt over the whole dataset, from the
// projected blocks: Σ_c ‖R·M_c·x − (Qᵀp_c)[:nFeat]‖² plus each
// configuration's out-of-span energy. A voltage-table miss is a hard error:
// every dataset configuration must resolve (silently skipping one used to
// understate the SSE and could declare convergence on an objective that
// ignored part of the data).
func (ws *estimatorWorkspace) trainingSSE(volt *VoltageTable, x []float64) (float64, error) {
	var sse float64
	var g [nFeat]float64 // M_c·x
	for fi, cfg := range ws.d.Configs {
		vc, vm, err := volt.At(cfg)
		if err != nil {
			return 0, fmt.Errorf("core: training SSE at %v: %w", cfg, err)
		}
		s1 := vc * vc * cfg.CoreMHz
		s3 := vm * vm * cfg.MemMHz
		g[0] = vc*x[0] + s1*x[1] + vm*x[2] + s3*x[3]
		for j := 0; j < nUtil-1; j++ {
			g[1+j] = s1 * x[4+j]
		}
		g[nFeat-1] = s3 * x[nParams-1]
		qtp := ws.qtp[fi*nFeat : (fi+1)*nFeat]
		s := ws.outSpan[fi]
		for i := 0; i < nFeat; i++ {
			pred := 0.0
			for j := i; j < nFeat; j++ {
				pred += ws.r[i*nFeat+j] * g[j]
			}
			diff := qtp[i] - pred
			s += diff * diff
		}
		sse += s
	}
	return sse, nil
}

// voltageDelta is the largest absolute voltage change between two tables.
func voltageDelta(a, b *VoltageTable) float64 {
	var mx float64
	for mi := range a.VCore {
		if d := linalg.MaxAbsDiff(a.VCore[mi], b.VCore[mi]); d > mx {
			mx = d
		}
		if d := linalg.MaxAbsDiff(a.VMem[mi], b.VMem[mi]); d > mx {
			mx = d
		}
	}
	return mx
}

// relDelta is the largest relative parameter change. The denominator is
// floored at 1% of the largest parameter magnitude, so near-zero
// coefficients jittering at the NNLS tolerance do not block convergence.
func relDelta(a, b []float64) float64 {
	var scale float64
	for i := range a {
		if v := math.Abs(a[i]); v > scale {
			scale = v
		}
		if v := math.Abs(b[i]); v > scale {
			scale = v
		}
	}
	floor := 1e-2 * scale
	if floor == 0 { //lint:ignore floateq guard: an all-zero parameter vector yields an exactly-zero floor, which must not divide
		floor = 1e-12
	}
	var mx float64
	for i := range a {
		den := math.Abs(a[i])
		if den < floor {
			den = floor
		}
		if d := math.Abs(a[i]-b[i]) / den; d > mx {
			mx = d
		}
	}
	return mx
}
