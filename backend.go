package gpupower

import (
	"context"
	"fmt"

	"gpupower/internal/backend"
	"gpupower/internal/backend/trace"
	"gpupower/internal/profiler"
	"gpupower/internal/sim"
)

// Backend is the measurement surface of one GPU: clock control, a power
// sensor, event collection, and kernel execution. Anything implementing it
// can drive the full modelling pipeline — the in-process simulator, a
// recorded measurement trace, or (on real hardware) an NVML/CUPTI exporter.
type Backend = backend.Backend

// RunInfo summarizes one measured kernel run (requested vs effective clocks
// and single-launch time).
type RunInfo = backend.RunInfo

// Measurement-boundary error taxonomy. Backends wrap these sentinels, so
// errors.Is distinguishes a clock-ladder violation from a trace that ran
// dry without parsing messages. Cancellation is reported by wrapping
// ctx.Err(), so errors.Is(err, context.Canceled) holds as well.
var (
	// ErrUnsupportedClock reports a frequency that is not a supported
	// ladder level.
	ErrUnsupportedClock = backend.ErrUnsupportedClock
	// ErrThrottled reports a TDP-capped reference-configuration run.
	ErrThrottled = backend.ErrThrottled
	// ErrTraceMismatch reports a replayed interaction the trace never
	// recorded.
	ErrTraceMismatch = backend.ErrTraceMismatch
	// ErrTraceExhausted reports a replayed interaction whose recorded
	// repetitions were all consumed.
	ErrTraceExhausted = backend.ErrTraceExhausted
	// ErrTraceVersion reports a trace file with an unsupported format
	// version.
	ErrTraceVersion = backend.ErrTraceVersion
)

// TraceRecorder wraps a backend and records every measurement interaction
// into a versioned JSON trace (see Save / Snapshot).
type TraceRecorder = trace.Recorder

// Trace is a recorded measurement session (versioned, serializable).
type Trace = trace.Trace

// NewSimBackend creates the simulator measurement backend for a catalog
// device: the same stack Open uses, exposed as a Backend so it can be
// wrapped (e.g. by Record) or swapped for a trace.
func NewSimBackend(deviceName string, seed uint64) (Backend, error) {
	s, err := sim.Open(deviceName, seed)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Record wraps any backend so that every measurement interaction is
// captured; save the recording with rec.Save(path) (".gz" for gzip) and
// replay it later with OpenTrace.
func Record(b Backend) *TraceRecorder {
	return trace.NewRecorder(b)
}

// OpenBackend creates a GPU handle over an arbitrary measurement backend —
// the generic form of Open. The handle supports everything the backend can
// answer: fitting, profiling and prediction work identically over the
// simulator, a recorder, or a replayed trace.
func OpenBackend(b Backend) (*GPU, error) {
	if b == nil {
		return nil, fmt.Errorf("gpupower: nil backend")
	}
	p, err := profiler.New(b)
	if err != nil {
		return nil, err
	}
	return &GPU{dev: b.Device(), b: b, prof: p}, nil
}

// OpenTrace creates a GPU handle that replays a recorded measurement trace:
// models can be fitted and profiles predicted with no simulator (or GPU) in
// the process. Interactions the trace did not record fail with
// ErrTraceMismatch or ErrTraceExhausted.
func OpenTrace(path string) (*GPU, error) {
	r, err := trace.Open(path)
	if err != nil {
		return nil, err
	}
	return OpenBackend(r)
}

// LoadTrace reads (and validates) a recorded trace file without opening a
// handle, for inspection.
func LoadTrace(path string) (*Trace, error) { return trace.Load(path) }

// CheckContext is the pipeline's cancellation helper: nil while ctx is
// live, otherwise a labeled error wrapping ctx.Err().
func CheckContext(ctx context.Context, op string) error {
	return backend.CheckContext(ctx, op)
}
