// Package parallel provides bounded, GOMAXPROCS-aware parallel loops with
// deterministic semantics. The fleet's dataset builds and fits, the
// experiment fan-outs and the cluster simulator's shards run on it; a
// single fit is serial.
//
// Design rules (see DESIGN.md §"Concurrency architecture"):
//
//   - Disjoint writes. Every parallel loop in this repository writes result
//     i (and only result i) to slot i of a pre-sized output; no two
//     goroutines ever write the same memory. Combined with per-item
//     arithmetic that is identical to the serial loop body, parallel
//     execution is bitwise-identical to serial execution.
//   - Ordered reductions. When a loop reduces to a scalar (e.g. the
//     cluster simulator's per-shard metrics), workers fill per-item
//     partials and the caller folds them in index order, so the
//     floating-point association is fixed and independent of scheduling.
//   - Deterministic errors. Per-item errors land in slot i and are joined
//     in index order, so the reported error does not depend on which
//     goroutine lost the race.
//   - Sequential mode. SetSequential(true) forces every loop through the
//     inline serial path — the reproducibility oracle the equivalence
//     tests compare against.
//
// Loops fall back to the inline path automatically when they would have a
// single worker or the trip count is 1, so single-core machines
// (GOMAXPROCS=1) pay zero goroutine overhead.
package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// sequential forces the inline serial path when set. It is a process
// global so reproducibility tests can pin the whole engine.
var sequential atomic.Bool

// SetSequential toggles process-wide sequential mode and returns the
// previous setting. Tests use it to obtain a serial oracle:
//
//	prev := parallel.SetSequential(true)
//	defer parallel.SetSequential(prev)
func SetSequential(on bool) (previous bool) {
	return sequential.Swap(on)
}

// Workers returns the loop width: GOMAXPROCS, and 1 in sequential mode.
func Workers() int {
	if sequential.Load() {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// workersFor resolves the goroutine count for a loop of n items:
// min(Workers(), n), and at least 1.
func workersFor(n int) int {
	return max(1, min(Workers(), n))
}

// ForEach runs fn(i) for every i in [0, n) over up to Workers()
// goroutines. Errors are collected per index and joined in index order; a
// non-nil error stops the distribution of further indices (in-flight items
// finish). fn must confine its writes to data owned by item i.
func ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workersFor(n) == 1 {
		// Inline serial path, duplicated from ForEachWorker so the adapter
		// closure below is never built when the loop won't fan out — that
		// closure escapes and would cost one allocation per call even on
		// single-core hosts.
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return fmt.Errorf("parallel: item %d: %w", i, err)
			}
		}
		return nil
	}
	return ForEachWorker(n, func(_, i int) error { return fn(i) })
}

// ForEachWorker is ForEach with the worker id (0 ≤ w < workers) passed to
// fn, so callers can maintain per-worker scratch buffers and keep the
// inner loop allocation-free:
//
//	scratch := make([][]float64, parallel.Workers())
//	parallel.ForEachWorker(n, func(w, i int) error { use scratch[w] ... })
//
// Worker 0 is always the caller's goroutine when the loop degenerates to
// the inline path.
func ForEachWorker(n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := workersFor(n)
	if workers == 1 {
		// Inline serial path: same iteration order as a plain for loop.
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return fmt.Errorf("parallel: item %d: %w", i, err)
			}
		}
		return nil
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		errs   = make([]error, n)
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := fn(worker, i); err != nil {
					errs[i] = fmt.Errorf("parallel: item %d: %w", i, err)
					failed.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	if failed.Load() {
		// Join in index order so the aggregate error is deterministic for
		// a deterministic set of failing items.
		var nonNil []error
		for _, e := range errs {
			if e != nil {
				nonNil = append(nonNil, e)
			}
		}
		return errors.Join(nonNil...)
	}
	return nil
}

// Map runs fn for every index through ForEach and returns the results in
// index order.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	err := ForEach(n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
