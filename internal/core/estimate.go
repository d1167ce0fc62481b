package core

import (
	"context"
	"fmt"
	"math"

	"gpupower/internal/backend"
	"gpupower/internal/hw"
	"gpupower/internal/linalg"
	"gpupower/internal/parallel"
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
// (len nParams) in place so the parallel assembly loops can reuse
// per-worker scratch rows.
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

// paramsToModel unpacks the X vector into model fields.
func paramsToModel(m *Model, x []float64) {
	copy(m.Beta[:], x[:4])
	m.OmegaCore = make(map[hw.Component]float64, len(CoreOmegaOrder))
	for i, c := range CoreOmegaOrder {
		m.OmegaCore[c] = x[4+i]
	}
	m.OmegaMem = x[10]
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

// nUtil is the length of a benchmark's utilization base block: the six
// CoreOmegaOrder components followed by DRAM. The estimator flattens each
// sample's Utilization map into this fixed-order block once per fit, so the
// per-iteration assembly loops never touch a map.
const nUtil = 7

// estimatorWorkspace carries every buffer the Section III-D alternation
// reuses across iterations (DESIGN.md §10): the flattened utilization base
// blocks, the full-ladder design matrix and right-hand side, the NNLS
// workspace for the step-1/step-3 refits, and the step-2/SSE scratch. One
// workspace serves one Estimate call; nothing in it is goroutine-safe.
//
// The incremental design assembly exploits the factored structure of the
// regression row: every voltage-dependent entry is one of the per-config
// scalars vc, s1 = vc²·fc, vm, s3 = vm²·fm times a per-sample utilization
// constant. The base blocks are computed once; each refit only rescales
// them in place. The arithmetic — s1·u instead of vc·vc·fc·u — preserves
// the float association of designRowInto exactly, so the assembled system
// (and therefore the fitted model) is bitwise-identical to the historical
// row-by-row path; estimate_equiv_test.go pins this.
type estimatorWorkspace struct {
	d  *Dataset
	nb int

	// ubase is nb base blocks of nUtil entries each (flat, stride nUtil).
	ubase []float64

	a    *linalg.Matrix // nb·len(Configs) × nParams design (step-3 shape)
	bvec []float64
	nnls *linalg.NNLSWorkspace

	// Subset-shape buffers for the step-1 {F1,F2,F3} solve. Historically
	// this path silently allocated a fresh matrix + rhs on every call; the
	// cache keeps repeated fits (the fleet scenario) allocation-free.
	subA *linalg.Matrix
	subB []float64

	// fill* carry solveXInto's per-call arguments to fillRowBlock, and
	// fillFn memoizes the bound method value. A closure literal passed to
	// parallel.ForEach escapes and allocates even on the inline serial
	// path (the MulInto closure-escape trap), so the assembly loop's
	// callback is built once per workspace instead of once per solve.
	fillA    *linalg.Matrix
	fillB    []float64
	fillVolt *VoltageTable
	fillIdx  []int
	fillFn   func(k int) error

	A, B    []float64 // step-2 per-benchmark precomputes
	partial []float64 // trainingSSE per-config partial sums
	mono    monotonicProjector
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

// newEstimatorWorkspace sizes a workspace for dataset d and flattens the
// utilization base blocks.
func newEstimatorWorkspace(d *Dataset) *estimatorWorkspace {
	ws := &estimatorWorkspace{}
	ws.reset(d)
	return ws
}

// reset retargets the workspace at dataset d, growing buffers only when d
// needs more capacity than any dataset seen before and re-deriving all
// dataset-dependent state (the flattened utilization base blocks). A reused
// workspace therefore produces bitwise-identical fits to a fresh one: every
// buffer is either fully rewritten here or fully rewritten by the assembly
// loops before it is read. This is what lets fleet fitting hold one
// workspace per worker across many heterogeneous device fits.
func (ws *estimatorWorkspace) reset(d *Dataset) {
	nb := len(d.Benchmarks)
	rows := nb * len(d.Configs)
	ws.d = d
	ws.nb = nb
	ws.ubase = growFloats(ws.ubase, nb*nUtil)
	if ws.a == nil {
		ws.a = linalg.NewMatrix(rows, nParams)
	} else {
		ws.a.Reshape(rows, nParams)
	}
	ws.bvec = growFloats(ws.bvec, rows)
	if ws.nnls == nil {
		ws.nnls = linalg.NewNNLSWorkspace(rows, nParams)
	} else {
		ws.nnls.Ensure(rows, nParams)
	}
	ws.A = growFloats(ws.A, nb)
	ws.B = growFloats(ws.B, nb)
	ws.partial = growFloats(ws.partial, len(d.Configs))
	for bi, bench := range d.Benchmarks {
		ub := ws.ubase[bi*nUtil : (bi+1)*nUtil]
		for i, c := range CoreOmegaOrder {
			ub[i] = bench.Util[c]
		}
		ub[nUtil-1] = bench.Util[hw.DRAM]
	}
}

// ub returns benchmark bi's utilization base block.
func (ws *estimatorWorkspace) ub(bi int) []float64 {
	return ws.ubase[bi*nUtil : (bi+1)*nUtil]
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
// The design-matrix assembly is parallelized across configurations: the k-th
// configuration owns the contiguous row block [k·nb, (k+1)·nb), so workers
// write disjoint slices of the matrix and the assembled system is
// bitwise-identical to the serial one. Rows are filled through RowView from
// the precomputed base blocks — no per-row scratch, no map lookups, and
// (for the full-ladder shape) no allocation.
func (ws *estimatorWorkspace) solveXInto(dst []float64, volt *VoltageTable, configIdx []int) error {
	rows := ws.nb * len(configIdx)
	a, b := ws.a, ws.bvec
	if rows != a.Rows() {
		// Subset solves (the step-1 {F1,F2,F3} system) use cached
		// right-sized buffers — a right-sized matrix keeps the NNLS scaling
		// identical to the historical path, and the cache keeps repeated
		// fits through a reused workspace allocation-free.
		if ws.subA == nil {
			ws.subA = linalg.NewMatrix(rows, nParams)
		} else if ws.subA.Rows() != rows {
			ws.subA.Reshape(rows, nParams)
		}
		ws.subB = growFloats(ws.subB, rows)
		a, b = ws.subA, ws.subB
	}
	if ws.fillFn == nil {
		ws.fillFn = ws.fillRowBlock
	}
	ws.fillA, ws.fillB, ws.fillVolt, ws.fillIdx = a, b, volt, configIdx
	err := parallel.ForEach(len(configIdx), ws.fillFn)
	ws.fillVolt, ws.fillIdx = nil, nil
	if err != nil {
		return err
	}
	return ws.nnls.WarmSolveInto(dst, a, b)
}

// fillRowBlock assembles configuration k's contiguous row block of the
// design system staged in ws.fill* by solveXInto. Workers read the shared
// fill state and write disjoint row ranges only.
func (ws *estimatorWorkspace) fillRowBlock(k int) error {
	d, nb := ws.d, ws.nb
	a, b := ws.fillA, ws.fillB
	fi := ws.fillIdx[k]
	cfg := d.Configs[fi]
	vc, vm, err := ws.fillVolt.At(cfg)
	if err != nil {
		return err
	}
	fc, fm := cfg.CoreMHz, cfg.MemMHz
	s1 := vc * vc * fc
	s3 := vm * vm * fm
	r := k * nb
	for bi := 0; bi < nb; bi++ {
		row := a.RowView(r)
		ub := ws.ub(bi)
		row[0] = vc
		row[1] = s1
		row[2] = vm
		row[3] = s3
		for i := 0; i < nUtil-1; i++ {
			row[4+i] = s1 * ub[i]
		}
		row[nParams-1] = s3 * ub[nUtil-1]
		b[r] = d.Power[bi][fi]
		r++
	}
	return nil
}

// solveX is the workspace-per-call form of solveXInto, kept for tests and
// one-shot callers.
func solveX(d *Dataset, volt *VoltageTable, configIdx []int) ([]float64, error) {
	ws := newEstimatorWorkspace(d)
	x := make([]float64, nParams)
	if err := ws.solveXInto(x, volt, configIdx); err != nil {
		return nil, err
	}
	return x, nil
}

// solveVoltages performs step 2: for every configuration, estimate
// (V̄core, V̄mem) by minimizing the squared prediction error over the
// benchmark set, then project each domain's ladder onto the monotonicity
// constraint (Eq. 12) and renormalize so V̄(ref) = 1.
//
// The per-configuration objective Σ_b (P_b − β0·vc − fc·A_b·vc² − β2·vm −
// fm·B_b·vm²)² is compiled into a closed-form bivariate quartic
// (linalg.Quartic2D) before the search: the benchmark sum collapses into
// thirteen monomial coefficients, one O(nb) pass per configuration, so every
// evaluation inside the golden-section descent costs O(1) instead of O(nb).
// This removed the dominant cost of a fit (the objective loop was >50% of
// Estimate's profile); estimate_reference_test.go keeps the direct-
// evaluation arithmetic as a test oracle.
func (ws *estimatorWorkspace) solveVoltages(x []float64, volt *VoltageTable, opts *EstimatorOptions) error {
	// Precompute A_b = β1 + Σ ω_i U_ib and B_b = β3 + ω_mem·U_dram,b on the
	// reused workspace buffers, reading the flattened base blocks (same
	// accumulation order as the historical map-walking loop).
	d := ws.d
	A, B := ws.A, ws.B
	for bi := 0; bi < ws.nb; bi++ {
		ub := ws.ub(bi)
		A[bi] = x[1]
		for i := 0; i < nUtil-1; i++ {
			A[bi] += x[4+i] * ub[i]
		}
		B[bi] = x[3] + x[nParams-1]*ub[nUtil-1]
	}
	beta0, beta2 := x[0], x[2]

	// Voltage- and frequency-independent moments of the per-benchmark slope
	// terms, shared by every configuration's compiled objective (the
	// config-dependent factors fc, fm scale them per config below).
	var sumA, sumB, sumA2, sumB2, sumAB float64
	for bi := 0; bi < ws.nb; bi++ {
		sumA += A[bi]
		sumB += B[bi]
		sumA2 += A[bi] * A[bi]
		sumB2 += B[bi] * B[bi]
		sumAB += A[bi] * B[bi]
	}
	nbf := float64(ws.nb)

	// The per-configuration solves are independent (the paper's step 2 is a
	// separate 2-D minimization per V-F point), so they fan out across the
	// worker pool. Each iteration writes exactly one (mi, ci) slot of the
	// voltage table — dataset configurations are unique (Dataset.Validate) —
	// so the writes are disjoint, and the per-config arithmetic is
	// straight-line, so the table is bitwise-identical to the serial fill.
	err := parallel.ForEach(len(d.Configs), func(fi int) error {
		cfg := d.Configs[fi]
		if cfg == d.Ref {
			//lint:ignore disjointwrite iteration fi writes only cfg's own (mi,ci) slot; configs are unique (Dataset.Validate)
			return volt.Set(cfg, 1, 1)
		}
		fc, fm := cfg.CoreMHz, cfg.MemMHz
		// Config-dependent moments: one fused pass over the benchmarks.
		var sumD, sumD2, sumDA, sumDB float64
		for bi := 0; bi < ws.nb; bi++ {
			pd := d.Power[bi][fi]
			sumD += pd
			sumD2 += pd * pd
			sumDA += pd * A[bi]
			sumDB += pd * B[bi]
		}
		q := linalg.Quartic2D{
			C00: sumD2,
			C10: -2 * beta0 * sumD,
			C20: nbf*beta0*beta0 - 2*fc*sumDA,
			C30: 2 * beta0 * fc * sumA,
			C40: fc * fc * sumA2,
			C01: -2 * beta2 * sumD,
			C02: nbf*beta2*beta2 - 2*fm*sumDB,
			C03: 2 * beta2 * fm * sumB,
			C04: fm * fm * sumB2,
			C11: 2 * nbf * beta0 * beta2,
			C12: 2 * beta0 * fm * sumB,
			C21: 2 * beta2 * fc * sumA,
			C22: 2 * fc * fm * sumAB,
		}
		vc, vm, err := q.Minimize(opts.VoltageLo, opts.VoltageHi,
			opts.VoltageLo, opts.VoltageHi, 1e-6)
		if err != nil {
			return err
		}
		//lint:ignore disjointwrite iteration fi writes only cfg's own (mi,ci) slot; configs are unique (Dataset.Validate)
		return volt.Set(cfg, vc, vm)
	})
	if err != nil {
		return err
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

// FitWorkspace is a reusable, opaque estimation workspace: the design
// matrix, NNLS/QR buffers and step-2/SSE scratch of the Section III-D
// alternation, preserved across EstimateWith calls. Buffers grow to the
// largest dataset seen and are re-derived per fit, so reuse never changes a
// fitted bit (the fleet equivalence tests pin this). A workspace is
// single-goroutine state: confine each instance to one worker (see
// parallel.PerWorker) or guard it externally.
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
	// same backing array), so the loop body is allocation-light: only the
	// parallel fan-out allocates.
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
// vector x with voltage table volt over the whole dataset.
//
// The (config × benchmark) error blocks are evaluated in parallel — each
// configuration owns one partial sum — and folded in configuration order,
// so the result is bitwise-identical run-to-run regardless of scheduling.
// A voltage-table miss is a hard error: every dataset configuration must
// resolve (silently skipping one used to understate the SSE and could
// declare convergence on an objective that ignored part of the data).
func (ws *estimatorWorkspace) trainingSSE(volt *VoltageTable, x []float64) (float64, error) {
	d := ws.d
	partial := ws.partial
	err := parallel.ForEach(len(d.Configs), func(fi int) error {
		cfg := d.Configs[fi]
		vc, vm, err := volt.At(cfg)
		if err != nil {
			return fmt.Errorf("core: training SSE at %v: %w", cfg, err)
		}
		fc, fm := cfg.CoreMHz, cfg.MemMHz
		s1 := vc * vc * fc
		s3 := vm * vm * fm
		var s float64
		for bi := 0; bi < ws.nb; bi++ {
			ub := ws.ub(bi)
			// Term-by-term accumulation in row order replicates the
			// historical designRowInto + ordered dot product exactly:
			// each term is (row entry)·x[j] with the row entry factored
			// through s1/s3 at identical float association.
			pred := 0.0
			pred += vc * x[0]
			pred += s1 * x[1]
			pred += vm * x[2]
			pred += s3 * x[3]
			for i := 0; i < nUtil-1; i++ {
				pred += s1 * ub[i] * x[4+i]
			}
			pred += s3 * ub[nUtil-1] * x[nParams-1]
			diff := d.Power[bi][fi] - pred
			s += diff * diff
		}
		partial[fi] = s
		return nil
	})
	if err != nil {
		return 0, err
	}
	var sse float64
	for _, s := range partial {
		sse += s
	}
	return sse, nil
}

// trainingSSE is the workspace-per-call form used by tests and diagnostics.
func trainingSSE(d *Dataset, volt *VoltageTable, x []float64) (float64, error) {
	return newEstimatorWorkspace(d).trainingSSE(volt, x)
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
