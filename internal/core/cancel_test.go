package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"gpupower/internal/microbench"
)

// The cancellation regression tests: long-running pipeline stages must
// return promptly with an error wrapping context.Canceled (run under -race
// by make race, which is what catches a cancellation path that races the
// fit).

func TestEstimateCanceledBeforeStart(t *testing.T) {
	d := syntheticDataset(defaultSyntheticTruth(), 60, 0, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := Estimate(ctx, d, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
}

func TestEstimateCanceledMidIteration(t *testing.T) {
	// Cancel concurrently with the alternation loop: Estimate must stop at
	// its next iteration checkpoint, never hang, and report the context
	// error (unless it legitimately finished before the cancel landed).
	d := syntheticDataset(defaultSyntheticTruth(), 60, 0.02, 2)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Estimate(ctx, d, nil)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want nil or wrapped context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Estimate did not return after cancellation")
	}
}

func TestBuildDatasetCanceled(t *testing.T) {
	p := k40Profiler(t)
	dev := p.HW()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := BuildDataset(ctx, p, microbench.Suite(), dev.DefaultConfig(), dev.AllConfigs())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}
