package trace

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gpupower/internal/backend"
	"gpupower/internal/hw"
	"gpupower/internal/kernels"
	"gpupower/internal/sim"
)

func testKernel(name string) *kernels.KernelSpec {
	return &kernels.KernelSpec{
		Name:            name,
		WarpInstrs:      map[hw.Component]float64{hw.SP: 2e9, hw.Int: 5e8},
		L2ReadBytes:     5e7,
		DRAMReadBytes:   5e7,
		FixedCycles:     1e5,
		IssueEfficiency: 0.9,
	}
}

func openRecorder(t *testing.T) (*Recorder, *sim.Device) {
	t.Helper()
	b, err := sim.Open("Tesla K40c", 7)
	if err != nil {
		t.Fatal(err)
	}
	return NewRecorder(b), b
}

// record performs a small measurement session through the recorder and
// returns the live answers for comparison.
func record(t *testing.T, rec *Recorder) (watts, idle, energy float64, metrics backend.Metrics) {
	t.Helper()
	k := testKernel("k")
	if err := rec.SetClocks(hw.Config{CoreMHz: 745, MemMHz: 3004}); err != nil {
		t.Fatal(err)
	}
	var err error
	watts, _, err = rec.SampledKernelPower(k, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	idle, err = rec.SampledIdlePower(50 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	metrics, _, err = rec.CollectMetrics(k)
	if err != nil {
		t.Fatal(err)
	}
	energy, _, err = rec.RunKernel(k)
	if err != nil {
		t.Fatal(err)
	}
	return watts, idle, energy, metrics
}

func TestRecorderCapturesSession(t *testing.T) {
	rec, _ := openRecorder(t)
	record(t, rec)
	// set_clocks + kernel_power + idle_power + collect + run_kernel.
	if rec.Len() != 5 {
		t.Fatalf("recorded %d events, want 5", rec.Len())
	}
	tr := rec.Snapshot()
	if tr.Version != Version || tr.Device != "Tesla K40c" {
		t.Fatalf("snapshot header: version %d, device %q", tr.Version, tr.Device)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReplayServesRecordedAnswers(t *testing.T) {
	rec, _ := openRecorder(t)
	watts, idle, energy, metrics := record(t, rec)

	rep, err := NewReplayer(rec.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.SetClocks(hw.Config{CoreMHz: 745, MemMHz: 3004}); err != nil {
		t.Fatal(err)
	}
	k := testKernel("k")
	w, info, err := rep.SampledKernelPower(k, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if w != watts {
		t.Fatalf("replayed power %g, recorded %g", w, watts)
	}
	if info.Seconds <= 0 {
		t.Fatal("run summary lost in replay")
	}
	i, err := rep.SampledIdlePower(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if i != idle {
		t.Fatalf("replayed idle %g, recorded %g", i, idle)
	}
	m, _, err := rep.CollectMetrics(k)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range metrics {
		if got := m[name]; got != v {
			t.Fatalf("metric %s: replayed %g, recorded %g", name, got, v)
		}
	}
	e, _, err := rep.RunKernel(k)
	if err != nil {
		t.Fatal(err)
	}
	if e != energy {
		t.Fatalf("replayed energy %g, recorded %g", e, energy)
	}
	if rep.Remaining() != 0 {
		t.Fatalf("%d measurements unserved", rep.Remaining())
	}
}

func TestReplayMismatchAndExhaustion(t *testing.T) {
	rec, _ := openRecorder(t)
	record(t, rec)
	rep, err := NewReplayer(rec.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	k := testKernel("k")

	// Same kernel at clocks the recording never measured at: mismatch.
	// (The replayer starts at the default configuration; the recording
	// measured at 745/3004 only.)
	if _, _, err := rep.SampledKernelPower(k, time.Second); !errors.Is(err, backend.ErrTraceMismatch) {
		t.Fatalf("unrecorded clocks: err = %v, want ErrTraceMismatch", err)
	}
	// Never-recorded kernel: mismatch.
	if err := rep.SetClocks(hw.Config{CoreMHz: 745, MemMHz: 3004}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rep.SampledKernelPower(testKernel("other"), time.Second); !errors.Is(err, backend.ErrTraceMismatch) {
		t.Fatalf("unrecorded kernel: err = %v, want ErrTraceMismatch", err)
	}
	// Recorded once, asked twice: second ask is exhaustion, not mismatch.
	if _, _, err := rep.SampledKernelPower(k, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rep.SampledKernelPower(k, time.Second); !errors.Is(err, backend.ErrTraceExhausted) {
		t.Fatalf("repeat ask: err = %v, want ErrTraceExhausted", err)
	}
	// Off-ladder clocks fail with the clock error, not a trace error.
	if err := rep.SetClocks(hw.Config{CoreMHz: 111, MemMHz: 3004}); !errors.Is(err, backend.ErrUnsupportedClock) {
		t.Fatalf("off-ladder: err = %v, want ErrUnsupportedClock", err)
	}
}

func TestReplayToleratesReordering(t *testing.T) {
	// Keyed matching: two kernels recorded in one order replay correctly in
	// the other order (harmless reordering between benchmark iterations).
	rec, _ := openRecorder(t)
	if err := rec.SetClocks(hw.Config{CoreMHz: 745, MemMHz: 3004}); err != nil {
		t.Fatal(err)
	}
	wa, _, err := rec.SampledKernelPower(testKernel("a"), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	wb, _, err := rec.SampledKernelPower(testKernel("b"), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplayer(rec.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.SetClocks(hw.Config{CoreMHz: 745, MemMHz: 3004}); err != nil {
		t.Fatal(err)
	}
	gb, _, err := rep.SampledKernelPower(testKernel("b"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ga, _, err := rep.SampledKernelPower(testKernel("a"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ga != wa || gb != wb {
		t.Fatalf("reordered replay: got (%g, %g), recorded (%g, %g)", ga, gb, wa, wb)
	}
}

// TestReplayMatchAllocFree is the allocation regression test for the
// indexed request matcher: serving a recorded measurement is one struct-key
// map lookup plus a head advance, and must not allocate (the historical
// matcher built a formatted string key and re-sliced the queue per call).
func TestReplayMatchAllocFree(t *testing.T) {
	tr := &Trace{Version: Version, Device: "Tesla K40c"}
	const reps = 400
	for i := 0; i < reps; i++ {
		tr.Events = append(tr.Events, Event{
			Op: OpIdlePower, CoreMHz: 745, MemMHz: 3004, Watts: 20 + float64(i),
		})
	}
	rep, err := NewReplayer(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.SetClocks(hw.Config{CoreMHz: 745, MemMHz: 3004}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(reps/2, func() {
		if _, err := rep.SampledIdlePower(time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("indexed trace match allocates %.1f/op, want 0", allocs)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rec, _ := openRecorder(t)
	rec.SetNote("unit-test session")
	watts, _, _, _ := record(t, rec)
	for _, name := range []string{"session.json", "session.json.gz"} {
		path := filepath.Join(t.TempDir(), name)
		if err := rec.Save(path); err != nil {
			t.Fatal(err)
		}
		tr, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Note != "unit-test session" || len(tr.Events) != rec.Len() {
			t.Fatalf("%s: round trip lost events or note", name)
		}
		rep, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.SetClocks(hw.Config{CoreMHz: 745, MemMHz: 3004}); err != nil {
			t.Fatal(err)
		}
		w, _, err := rep.SampledKernelPower(testKernel("k"), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		// JSON round-trips floats exactly (encoding/json emits the shortest
		// representation that re-parses to the same float64).
		if w != watts || math.IsNaN(w) {
			t.Fatalf("%s: replayed %g, recorded %g", name, w, watts)
		}
	}
}

func TestLoadRejectsBadTraces(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"garbage.json":  "not json",
		"version.json":  `{"version": 99, "device": "Tesla K40c", "events": []}`,
		"device.json":   `{"version": 1, "device": "GTX 480", "events": []}`,
		"trailing.json": `{"version": 1, "device": "Tesla K40c", "events": []} {}`,
	}
	for name, content := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The version failure specifically carries the typed sentinel.
	_, err := Load(filepath.Join(dir, "version.json"))
	if !errors.Is(err, backend.ErrTraceVersion) {
		t.Fatalf("version error = %v, want wrapped ErrTraceVersion", err)
	}
	// Truncated gzip data must fail cleanly.
	bad := filepath.Join(dir, "trunc.json.gz")
	if err := os.WriteFile(bad, []byte{0x1f, 0x8b, 0x00}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Error("truncated gzip accepted")
	}
	if _, err := Load(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := Open(filepath.Join(dir, "version.json")); err == nil {
		t.Error("Open accepted a bad trace")
	}
}

func TestRecorderString(t *testing.T) {
	rec, _ := openRecorder(t)
	s := rec.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}
