package registry

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"gpupower/internal/backend"
	"gpupower/internal/fleet"
	"gpupower/internal/kernels"
	"gpupower/internal/profiler"
)

// faultyBackend wraps a measurement backend whose power sensor fails from
// the failAt-th SampledKernelPower call on: each reading is an error
// wrapping backend.ErrTraceExhausted or, when nan is set, a NaN (a sensor
// that dropped out).
type faultyBackend struct {
	backend.Backend
	failAt, calls int
	nan           bool
}

func (b *faultyBackend) SampledKernelPower(k *kernels.KernelSpec, minWall time.Duration) (float64, backend.RunInfo, error) {
	b.calls++
	w, run, err := b.Backend.SampledKernelPower(k, minWall)
	if err != nil || b.calls < b.failAt {
		return w, run, err
	}
	if b.nan {
		return math.NaN(), run, nil
	}
	return 0, backend.RunInfo{}, fmt.Errorf("faulty sensor: reading %d: %w", b.calls, backend.ErrTraceExhausted)
}

// TestRefitMeasurementFault: a measurement fault in the middle of a refit
// fails the refit, a typed fault keeps its type through the profiler,
// core.BuildDataset and Refit's wrap, and the entry keeps serving the model
// and generation it had.
func TestRefitMeasurementFault(t *testing.T) {
	for _, tc := range []struct {
		name string
		nan  bool
	}{
		{"trace exhausted", false},
		{"sensor dropout", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			member, err := fleet.OpenMember(fleet.Spec{Device: "Tesla K40c", Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			bk := &faultyBackend{Backend: member.Backend, failAt: 25, nan: tc.nan}
			prof, err := profiler.New(bk)
			if err != nil {
				t.Fatal(err)
			}
			m0 := testModel(t, member.Device, 40)
			e, err := NewEntry("faulty", member.Device, bk, prof, m0, FitMeta{Source: "simulator"})
			if err != nil {
				t.Fatal(err)
			}
			_, before := e.Snapshot()

			_, err = e.Refit(context.Background(), nil)
			if err == nil {
				t.Fatal("refit over a faulty sensor succeeded")
			}
			if bk.calls < bk.failAt {
				t.Fatalf("refit failed before the fault (reading %d of %d): %v", bk.calls, bk.failAt, err)
			}
			if !tc.nan && !errors.Is(err, backend.ErrTraceExhausted) {
				t.Fatalf("refit error %q does not wrap backend.ErrTraceExhausted", err)
			}
			m, after := e.Snapshot()
			if m != m0 || after.Generation != before.Generation {
				t.Fatalf("failed refit changed the entry: model %p generation %d, want %p generation %d",
					m, after.Generation, m0, before.Generation)
			}
		})
	}
}
