package registry

import (
	"testing"

	"gpupower/internal/core"
	"gpupower/internal/hw"
)

// TestSnapshotAllocFree pins the dynamic half of the //gpower:noalloc
// contract on Entry.Snapshot: a reader taking its per-batch model snapshot
// allocates nothing.
func TestSnapshotAllocFree(t *testing.T) {
	dev := hw.TeslaK40c()
	m := testModel(t, dev, 40)
	e, err := NewEntry("k40", dev, nil, nil, m, FitMeta{Source: "test"})
	if err != nil {
		t.Fatal(err)
	}

	var model *core.Model
	var meta FitMeta
	allocs := testing.AllocsPerRun(100, func() {
		model, meta = e.Snapshot()
	})
	if allocs != 0 {
		t.Fatalf("Entry.Snapshot allocates %.1f objects per run; want 0", allocs)
	}
	if model != m || meta.Source != "test" {
		t.Fatal("Entry.Snapshot returned the wrong pair")
	}
}
