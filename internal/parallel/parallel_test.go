package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	const n = 1000
	visits := make([]int32, n)
	if err := ForEach(n, func(i int) error {
		atomic.AddInt32(&visits[i], 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	called := false
	if err := ForEach(0, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := ForEach(-3, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called for empty loop")
	}
}

func TestForEachErrorAggregation(t *testing.T) {
	// On the inline serial path the failing item's error keeps its chain
	// and names the item.
	prev := SetSequential(true)
	defer SetSequential(prev)
	sentinel := errors.New("boom")
	err := ForEach(5, func(i int) error {
		if i == 2 {
			return fmt.Errorf("item-%d: %w", i, sentinel)
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("error chain lost: %v", err)
	}
	if !strings.Contains(err.Error(), "item 2") {
		t.Fatalf("error does not identify the item: %v", err)
	}
}

func TestForEachParallelErrorIsDeterministicForSerialPool(t *testing.T) {
	// Fanned out over four workers, the reported failing indices are
	// joined in index order. GOMAXPROCS is raised so the loop fans out
	// on a single-core host too.
	prevProcs := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prevProcs)
	prev := SetSequential(false)
	defer SetSequential(prev)
	err := ForEach(8, func(i int) error {
		if i%2 == 1 {
			return fmt.Errorf("odd %d", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	// Index order: any reported subset must be ascending.
	msg := err.Error()
	last := -1
	for i := 1; i < 8; i += 2 {
		pos := strings.Index(msg, fmt.Sprintf("item %d", i))
		if pos >= 0 && pos < last {
			t.Fatalf("errors out of index order: %q", msg)
		}
		if pos >= 0 {
			last = pos
		}
	}
}

func TestForEachWorkerScratchIsExclusive(t *testing.T) {
	// Per-worker scratch slots must never be used by two goroutines at
	// once; -race verifies the absence of data races, this verifies the id
	// range.
	workers := Workers()
	busy := make([]atomic.Bool, workers)
	err := ForEachWorker(200, func(w, i int) error {
		if w < 0 || w >= workers {
			return fmt.Errorf("worker id %d out of range [0,%d)", w, workers)
		}
		if !busy[w].CompareAndSwap(false, true) {
			return fmt.Errorf("worker slot %d used concurrently", w)
		}
		defer busy[w].Store(false)
		runtime.Gosched()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMapPreservesOrder(t *testing.T) {
	out, err := Map(100, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if _, err := Map(3, func(i int) (int, error) {
		if i == 1 {
			return 0, errors.New("bad")
		}
		return i, nil
	}); err == nil {
		t.Fatal("Map swallowed the error")
	}
}

func TestSequentialMode(t *testing.T) {
	prev := SetSequential(true)
	defer SetSequential(prev)
	if w := Workers(); w != 1 {
		t.Fatalf("sequential Workers() = %d, want 1", w)
	}
	// The inline path must run in index order on the caller's goroutine.
	var order []int
	if err := ForEachWorker(10, func(w, i int) error {
		if w != 0 {
			return fmt.Errorf("sequential worker id %d", w)
		}
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order %v", order)
		}
	}
}

func TestPoolSizeBounds(t *testing.T) {
	prevProcs := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prevProcs)
	prev := SetSequential(false)
	defer SetSequential(prev)
	if got := workersFor(3); got != 3 {
		t.Fatalf("width clipped to n: got %d", got)
	}
	if got := workersFor(1000); got != Workers() {
		t.Fatalf("default width: got %d, want %d", got, Workers())
	}
	if got := workersFor(0); got != 1 {
		t.Fatalf("empty loop width: got %d, want 1", got)
	}
	SetSequential(true)
	if got := workersFor(1000); got != 1 {
		t.Fatalf("sequential width: got %d, want 1", got)
	}
}
