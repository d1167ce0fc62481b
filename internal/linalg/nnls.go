package linalg

import "fmt"

// passiveSolver solves the least-squares problem restricted to the passive
// columns. The default path is the workspace-backed solvePassiveInto; tests
// inject failing solvers through nnls() to exercise the transient-
// singularity (blocked-set) recovery path.
type passiveSolver func(a *Matrix, b []float64, passive []bool) ([]float64, error)

// NNLS solves the non-negative least-squares problem
//
//	min_x ‖A·x − b‖₂  subject to  x ≥ 0
//
// using the active-set algorithm of Lawson & Hanson (1974). The power-model
// estimator relies on it because every hardware coefficient (β, ω) is a
// physical capacitance/leakage quantity and must be non-negative.
//
// NNLS allocates a fresh workspace per call; iterative callers (the
// Section III-D refit loop) should hold an NNLSWorkspace and use SolveInto
// or WarmSolveInto, which allocate nothing in steady state.
func NNLS(a *Matrix, b []float64) ([]float64, error) {
	return nnls(a, b, nil)
}

// nnls is the active-set iteration with an injectable passive solver
// (nil selects the allocation-free workspace path).
func nnls(a *Matrix, b []float64, solve passiveSolver) ([]float64, error) {
	ws := NewNNLSWorkspace(a.Rows(), a.Cols())
	ws.testSolve = solve
	x := make([]float64, a.Cols())
	if err := ws.SolveInto(x, a, b); err != nil {
		return nil, err
	}
	return x, nil
}

// NNLSWorkspace holds every buffer the Lawson–Hanson active-set iteration
// needs — gradient, residual, passive/blocked sets and the QR factorization
// of the passive columns — preallocated for a maximum system size.
// SolveInto then runs with zero steady-state heap allocations, which is
// what keeps the estimator's step-1/step-3 refits off the allocator
// (DESIGN.md §10).
//
// A workspace is single-goroutine state: confine each instance to one
// worker or guard it externally.
type NNLSWorkspace struct {
	maxRows, maxCols int

	w, z, zs  []float64 // maxCols
	passive   []bool
	blocked   []bool
	resid, ax []float64 // maxRows
	qr        *QRWorkspace

	// testSolve, when non-nil, replaces the passive solve (test injection).
	testSolve passiveSolver
}

// NewNNLSWorkspace preallocates a workspace for systems with rows ≤ maxRows
// and cols ≤ maxCols.
func NewNNLSWorkspace(maxRows, maxCols int) *NNLSWorkspace {
	if maxRows <= 0 || maxCols <= 0 {
		panic(fmt.Sprintf("linalg: invalid NNLS workspace capacity %dx%d", maxRows, maxCols))
	}
	qrRows := maxRows
	if qrRows < maxCols {
		qrRows = maxCols
	}
	return &NNLSWorkspace{
		maxRows: maxRows,
		maxCols: maxCols,
		w:       make([]float64, maxCols),
		z:       make([]float64, maxCols),
		zs:      make([]float64, maxCols),
		passive: make([]bool, maxCols),
		blocked: make([]bool, maxCols),
		resid:   make([]float64, maxRows),
		ax:      make([]float64, maxRows),
		qr:      NewQRWorkspace(qrRows, maxCols),
	}
}

// Ensure grows the workspace to accommodate systems with rows ≤ maxRows and
// cols ≤ maxCols, reallocating the internal buffers only when the requested
// capacity exceeds the current one. It exists for long-lived per-worker
// workspaces (fleet fitting) that meet heterogeneous system shapes; growing
// never changes solve results, because every buffer is (re)initialized per
// SolveInto. Not safe to call concurrently with a solve.
func (ws *NNLSWorkspace) Ensure(maxRows, maxCols int) {
	if maxRows <= ws.maxRows && maxCols <= ws.maxCols {
		return
	}
	if maxRows < ws.maxRows {
		maxRows = ws.maxRows
	}
	if maxCols < ws.maxCols {
		maxCols = ws.maxCols
	}
	grown := NewNNLSWorkspace(maxRows, maxCols)
	grown.testSolve = ws.testSolve
	*ws = *grown
}

// SolveInto solves min ‖A·x − b‖ s.t. x ≥ 0 into dst (len Cols), starting
// from x = 0: whatever dst holds on entry is ignored. The arithmetic —
// including the passive QR solves — is shared with the allocating NNLS
// entry point, so the two are bitwise-identical; only the storage strategy
// differs.
//
//gpower:noalloc the active-set iteration runs entirely on preallocated workspace storage
func (ws *NNLSWorkspace) SolveInto(dst []float64, a *Matrix, b []float64) error {
	for j := range dst {
		dst[j] = 0
	}
	return ws.WarmSolveInto(dst, a, b)
}

// WarmSolveInto is SolveInto started from the support of a previous
// solution: on entry, the positive entries of dst name the starting passive
// set. A cold solve grows the passive set from empty one variable at a
// time, with a fresh QR per step; a caller re-solving a slowly drifting
// system (the Section III-D step-3 refit) already knows the support, and
// from it one passive solve and one KKT check finish the job.
//
// The named set is solved once. If it is full-rank and every coefficient
// on it comes out positive, Lawson–Hanson continues from that point with
// the same KKT check, adds and clips; otherwise the set is cleared and the
// cold iteration runs unchanged. Either way the result is the least-squares
// solution on the final passive set from the same sorted-column QR, so a
// warm start that ends on the cold solve's passive set returns the cold
// solve's bits (DESIGN.md §10.1).
//
//gpower:noalloc the warm start and the active-set iteration run entirely on preallocated workspace storage
func (ws *NNLSWorkspace) WarmSolveInto(dst []float64, a *Matrix, b []float64) error {
	return ws.WarmSolveScaledInto(dst, a, b, a.MaxAbs()*Norm2(b))
}

// WarmSolveScaledInto is WarmSolveInto with the stopping rule's scale
// given by the caller: the iteration stops when no clamped variable's
// gradient exceeds 1e-10·scale, where WarmSolveInto passes MaxAbs(A)·‖b‖.
// A caller that solves a projection of a larger system — same AᵀA and Aᵀb,
// hence the same gradients, but larger entries — passes the larger
// system's MaxAbs·‖b‖, so the projection stops where that system would.
func (ws *NNLSWorkspace) WarmSolveScaledInto(dst []float64, a *Matrix, b []float64, scale float64) error {
	m, n := a.Rows(), a.Cols()
	if len(b) != m {
		//gpower:allocs validation error path: a mis-sized rhs never reaches the solver
		return fmt.Errorf("linalg: NNLS rhs length %d, want %d", len(b), m)
	}
	if len(dst) != n {
		//gpower:allocs validation error path: a mis-sized dst never reaches the solver
		return fmt.Errorf("linalg: NNLS dst length %d, want %d", len(dst), n)
	}
	if m > ws.maxRows || n > ws.maxCols {
		//gpower:allocs validation error path: an over-capacity system never reaches the solver
		return fmt.Errorf("linalg: %dx%d exceeds NNLS workspace capacity %dx%d", m, n, ws.maxRows, ws.maxCols)
	}

	x := dst
	blocked := ws.blocked[:n] // variables whose inclusion made the passive set singular
	for j := range blocked {
		blocked[j] = false
	}

	const (
		maxOuter = 3 * 64
		tol      = 1e-10
	)
	if scale == 0 {
		for j := range x {
			x[j] = 0
		}
		return nil // A or b is all-zero; x = 0 is optimal.
	}
	gradTol := tol * scale

	passive := ws.passive[:n] // true: variable free, false: clamped at 0
	w := ws.w[:n]             // gradient of the active (clamped) variables
	resid := ws.resid[:m]
	if ws.warmStart(x, a, b) {
		if err := ws.residualInto(resid, a, b, x); err != nil {
			return err
		}
	} else {
		copy(resid, b)
	}

	outer := 0
	for {
		outer++
		if outer > maxOuter+n*8 {
			// Defensive bound; in practice the loop terminates long before.
			break
		}
		// w = Aᵀ·resid (the KKT gradient of the clamped variables).
		if err := a.TMulVecInto(w, resid); err != nil {
			return err
		}
		// Pick the most promising clamped variable.
		best, bestW := -1, gradTol
		for j := 0; j < n; j++ {
			if !passive[j] && !blocked[j] && w[j] > bestW {
				best, bestW = j, w[j]
			}
		}
		if best < 0 {
			break // KKT conditions satisfied.
		}
		passive[best] = true

		// Inner loop: solve the unconstrained problem on the passive set and
		// clip any variables that went negative. removed tracks whether any
		// variable left the passive set this outer iteration — if so, the
		// passive geometry changed and stale singularity verdicts (blocked
		// flags) must be re-examined.
		removed := false
		blockedBest := false
		for {
			z, err := ws.solvePassive(a, b, passive)
			if err != nil {
				// The passive submatrix became singular (e.g. collinear
				// columns when every voltage is pinned to 1); clamp the
				// variable we just freed and exclude it from the picks until
				// the passive set changes again.
				passive[best] = false
				blocked[best] = true
				blockedBest = true
				break
			}
			// Feasible?
			minIdx, alpha := -1, 1.0
			for j := 0; j < n; j++ {
				if passive[j] && z[j] <= 0 {
					// Step length to the first bound along x→z.
					den := x[j] - z[j]
					if den <= 0 {
						continue
					}
					a2 := x[j] / den
					if a2 < alpha {
						alpha, minIdx = a2, j
					}
				}
			}
			if minIdx < 0 {
				copy(x, z)
				break
			}
			for j := 0; j < n; j++ {
				if passive[j] {
					x[j] += alpha * (z[j] - x[j])
				}
			}
			for j := 0; j < n; j++ {
				if passive[j] && x[j] <= tol {
					x[j] = 0
					passive[j] = false
					removed = true
				}
			}
		}

		// Blocked-set recovery: a blocked variable was only unusable against
		// the passive set that existed when it was blocked. Once any variable
		// has left the passive set, the offending collinearity may be gone,
		// so every blocked variable becomes eligible again (except one
		// blocked in this very iteration, which reflects the current set).
		// Without this, a transiently collinear column stayed excluded
		// forever and NNLS could return a suboptimal, KKT-violating point.
		if removed {
			for j := range blocked {
				blocked[j] = false
			}
			if blockedBest {
				blocked[best] = true
			}
		}

		if err := ws.residualInto(resid, a, b, x); err != nil {
			return err
		}
	}
	// Clean tiny negatives from floating-point noise.
	for j := range x {
		if x[j] < 0 && x[j] > -1e-12 {
			x[j] = 0
		}
	}
	return nil
}

// warmStart seeds the passive set with the positive entries of x and
// solves the least-squares problem on it once. It reports whether that
// solution is a feasible starting point — the set is full-rank and every
// coefficient on it is positive — and leaves it in x. Otherwise it clears
// the passive set and zeroes x: the cold start.
func (ws *NNLSWorkspace) warmStart(x []float64, a *Matrix, b []float64) bool {
	passive := ws.passive[:len(x)]
	seeded := false
	for j, v := range x {
		passive[j] = v > 0
		seeded = seeded || passive[j]
	}
	if seeded {
		z, err := ws.solvePassive(a, b, passive)
		feasible := err == nil
		for j := 0; feasible && j < len(x); j++ {
			feasible = !passive[j] || z[j] > 0
		}
		if feasible {
			copy(x, z)
			return true
		}
	}
	for j := range x {
		x[j] = 0
		passive[j] = false
	}
	return false
}

// residualInto refreshes resid = b − A·x on the workspace's product buffer.
func (ws *NNLSWorkspace) residualInto(resid []float64, a *Matrix, b, x []float64) error {
	ax := ws.ax[:a.Rows()]
	if err := a.MulVecInto(ax, x); err != nil {
		return err
	}
	for i := range resid {
		resid[i] = b[i] - ax[i]
	}
	return nil
}

// solvePassive dispatches the passive-set solve: the injected test solver
// when present, the allocation-free workspace path otherwise. Either way
// the solution lands in ws.z (zeros on the active set).
func (ws *NNLSWorkspace) solvePassive(a *Matrix, b []float64, passive []bool) ([]float64, error) {
	if ws.testSolve != nil {
		//gpower:allocs test-only injection point: production workspaces never set testSolve
		z, err := ws.testSolve(a, b, passive)
		if err != nil {
			return nil, err
		}
		copy(ws.z[:a.Cols()], z)
		return ws.z[:a.Cols()], nil
	}
	if err := ws.solvePassiveInto(a, b, passive); err != nil {
		return nil, err
	}
	return ws.z[:a.Cols()], nil
}

// solvePassiveInto solves the least-squares problem restricted to the
// passive columns into ws.z, gathering them in ascending order straight
// into the preallocated QR's column-major storage and factorizing in place
// — no allocation. The gathered values and the factorization kernel are
// those of gathering the columns into a new matrix and calling
// LeastSquares, so the solution is bitwise-equal to that allocating path,
// which workspace_test.go keeps as its oracle. A passive set wider than the system is tall returns
// ErrRankDeficient, which the active-set loop treats like any other
// singular passive set.
func (ws *NNLSWorkspace) solvePassiveInto(a *Matrix, b []float64, passive []bool) error {
	n := a.Cols()
	idx := ws.qr.cols[:n]
	k := 0
	for j := 0; j < n; j++ {
		if passive[j] {
			idx[k] = j
			k++
		}
	}
	idx = idx[:k]
	z := ws.z[:n]
	for j := range z {
		z[j] = 0
	}
	if k == 0 {
		return nil
	}
	if err := ws.qr.factorizeColumns(a, idx); err != nil {
		return err
	}
	zs := ws.zs[:k]
	if err := ws.qr.SolveInto(zs, b); err != nil {
		return err
	}
	for p, j := range idx {
		z[j] = zs[p]
	}
	return nil
}
