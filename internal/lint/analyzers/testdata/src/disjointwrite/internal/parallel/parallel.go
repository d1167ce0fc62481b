// Package parallel is a serial stand-in for the real worker pool, carrying
// the same entry-point signatures so the disjointwrite fixtures resolve the
// callees exactly as the module does.
package parallel

// Pool mirrors the real bounded worker pool.
type Pool struct{ workers int }

// NewPool returns a pool with the given worker bound.
func NewPool(workers int) *Pool { return &Pool{workers: workers} }

// ForEach runs fn(i) for every i in [0, n).
func (p *Pool) ForEach(n int, fn func(i int) error) error {
	return p.ForEachWorker(n, func(_, i int) error { return fn(i) })
}

// ForEachWorker is ForEach with the worker id passed to fn.
func (p *Pool) ForEachWorker(n int, fn func(worker, i int) error) error {
	for i := 0; i < n; i++ {
		if err := fn(0, i); err != nil {
			return err
		}
	}
	return nil
}

// ForEach runs fn over [0, n) on the default pool.
func ForEach(n int, fn func(i int) error) error {
	return (&Pool{}).ForEach(n, fn)
}

// ForEachWorker runs fn over [0, n) on the default pool.
func ForEachWorker(n int, fn func(worker, i int) error) error {
	return (&Pool{}).ForEachWorker(n, fn)
}

// Map runs fn for every index and returns the results in index order.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	for i := 0; i < n; i++ {
		v, err := fn(i)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
