package linalg

import "fmt"

// PAVA computes isotonic regressions with the Pool-Adjacent-Violators
// Algorithm: the non-decreasing sequence closest to the input in weighted
// least squares. The estimator uses it to enforce the paper's voltage
// monotonicity constraint: f_x1 > f_x2 ⇒ V̄(f_x1) ≥ V̄(f_x2) (Section III-D,
// Eq. 12).
//
// A PAVA is reusable scratch: the stack of pooled blocks. The zero value is
// ready to use; the stack grows to the longest input seen, so a held PAVA
// fits without allocating. It is single-goroutine state.
type PAVA struct {
	v, w  []float64 // pooled value and weight of each block
	count []int     // points pooled into each block
}

// FitInPlace overwrites y with its isotonic regression, pooling on p's
// block stack instead of allocating. weights may be nil, in which case all
// points weigh 1.
func (p *PAVA) FitInPlace(y, weights []float64) error {
	n := len(y)
	if n == 0 {
		return fmt.Errorf("linalg: isotonic regression on empty input")
	}
	if weights != nil {
		if len(weights) != n {
			return fmt.Errorf("linalg: isotonic weights length %d, want %d", len(weights), n)
		}
		for i, wi := range weights {
			if wi <= 0 {
				return fmt.Errorf("linalg: isotonic weight %d is %g, must be positive", i, wi)
			}
		}
	}
	if cap(p.v) < n {
		p.v, p.w, p.count = make([]float64, n), make([]float64, n), make([]int, n)
	}
	v, w, count := p.v[:n], p.w[:n], p.count[:n]

	top := 0 // blocks on the stack
	for i := 0; i < n; i++ {
		v[top], w[top], count[top] = y[i], 1, 1
		if weights != nil {
			w[top] = weights[i]
		}
		top++
		// Merge backwards while the monotonicity is violated.
		for top >= 2 {
			b := top - 1
			if v[b-1] <= v[b] {
				break
			}
			mw := w[b-1] + w[b]
			v[b-1] = (v[b-1]*w[b-1] + v[b]*w[b]) / mw
			w[b-1] = mw
			count[b-1] += count[b]
			top--
		}
	}
	i := 0
	for b := 0; b < top; b++ {
		for k := 0; k < count[b]; k++ {
			y[i] = v[b]
			i++
		}
	}
	return nil
}
