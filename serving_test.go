package gpupower_test

import (
	"context"
	"testing"

	"gpupower"
)

func TestBuildModelRegistry(t *testing.T) {
	ctx := context.Background()
	specs := []gpupower.FleetSpec{
		{Device: gpupower.TeslaK40c, Seed: 3},
		{Device: gpupower.TeslaK40c, Seed: 4},
	}
	r, err := gpupower.BuildModelRegistry(ctx, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != len(specs) {
		t.Fatalf("registry has %d entries, want %d", r.Len(), len(specs))
	}
	for i, spec := range specs {
		e, ok := r.Lookup(spec.String())
		if !ok {
			t.Fatalf("missing entry %q", spec.String())
		}
		if r.Names()[i] != spec.String() {
			t.Fatal("entries must be registered in spec order")
		}
		m, meta := e.Snapshot()
		if m.DeviceName != spec.Device {
			t.Fatalf("entry %q model fitted on %q", spec.String(), m.DeviceName)
		}
		if meta.Source != "simulator" {
			t.Fatalf("source %q, want simulator", meta.Source)
		}
		if meta.Generation != 1 {
			t.Fatalf("fleet-built entry numbered %d, want 1", meta.Generation)
		}
	}
	// Entries keep their measurement stack, so a refit needs no reopening.
	e, _ := r.Lookup(specs[0].String())
	if _, err := e.Refit(ctx, nil); err != nil {
		t.Fatalf("refit of a fleet-built entry: %v", err)
	}
	if _, meta := e.Snapshot(); meta.Generation != 2 || meta.Source != "simulator" {
		t.Fatalf("after refit: generation %d, source %q", meta.Generation, meta.Source)
	}

	if _, err := gpupower.BuildModelRegistry(ctx, nil, nil); err == nil {
		t.Fatal("empty specs must be rejected")
	}
	dup := []gpupower.FleetSpec{{Device: gpupower.TeslaK40c, Seed: 3}, {Device: gpupower.TeslaK40c, Seed: 3}}
	if _, err := gpupower.BuildModelRegistry(ctx, dup, nil); err == nil {
		t.Fatal("duplicate specs must be rejected before measurement")
	}
}
