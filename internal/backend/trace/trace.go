// Package trace implements the record/replay measurement backend: a
// Recorder wraps any backend.Backend and captures every measurement
// interaction (clock sets, power reads, event passes, kernel runs) into a
// versioned JSON trace; a Replayer later serves the same interactions back
// with no device — simulated or real — in the process.
//
// This is the artifact-portability workflow of the paper's virtual-sensor
// use case: one machine with the GPU (or the simulator) records a
// measurement session; any other machine refits the model or re-evaluates a
// profile from the recorded trace alone. Because the profiler and estimator
// are deterministic given the measurements, a fit replayed from a trace is
// bitwise-identical to the fit that produced it.
//
// # Format
//
// A trace is a JSON object {version, device, events[]} (gzip-compressed
// when the path ends in ".gz"). Version compatibility rule: a reader
// accepts exactly the versions it knows (currently only Version 1); any
// other version fails with backend.ErrTraceVersion rather than guessing.
// Additive changes (new optional fields) do not bump the version; any
// change that alters the meaning or matching of recorded events does.
package trace

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"gpupower/internal/backend"
	"gpupower/internal/hw"
)

// Version is the trace format version this build reads and writes.
const Version = 1

// Op identifies one kind of recorded measurement interaction.
type Op string

// The recorded operations.
const (
	OpSetClocks   Op = "set_clocks"
	OpKernelPower Op = "kernel_power"
	OpIdlePower   Op = "idle_power"
	OpCollect     Op = "collect"
	OpRunKernel   Op = "run_kernel"
)

// Run is the serialized form of backend.RunInfo.
type Run struct {
	ReqCoreMHz float64 `json:"req_fcore"`
	ReqMemMHz  float64 `json:"req_fmem"`
	EffCoreMHz float64 `json:"eff_fcore"`
	EffMemMHz  float64 `json:"eff_fmem"`
	Seconds    float64 `json:"seconds"`
}

// Event is one recorded measurement interaction. CoreMHz/MemMHz are the
// application clocks in force when the interaction happened — together with
// Op and Kernel they form the replay-matching key.
type Event struct {
	Op      Op      `json:"op"`
	Kernel  string  `json:"kernel,omitempty"`
	CoreMHz float64 `json:"fcore"`
	MemMHz  float64 `json:"fmem"`

	// Watts carries the measured power for kernel_power and idle_power.
	Watts float64 `json:"w,omitempty"`
	// EnergyJ carries the measured energy for run_kernel.
	EnergyJ float64 `json:"j,omitempty"`
	// Metrics carries the Table I metrics for collect.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Run summarizes the kernel execution behind the measurement.
	Run *Run `json:"run,omitempty"`
}

// Trace is a complete recorded measurement session on one device.
type Trace struct {
	Version int    `json:"version"`
	Device  string `json:"device"`
	// Note is free-form provenance (recording tool, seed, date).
	Note   string  `json:"note,omitempty"`
	Events []Event `json:"events"`
}

// Validate checks structural invariants: a known version and a resolvable
// catalog device.
func (t *Trace) Validate() error {
	if t.Version != Version {
		return fmt.Errorf("trace: version %d (want %d): %w", t.Version, Version, backend.ErrTraceVersion)
	}
	if _, err := hw.DeviceByName(t.Device); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// Save writes the trace as JSON to path, gzip-compressed when the path ends
// in ".gz".
func (t *Trace) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var w io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		w = gz
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(t); err != nil {
		f.Close()
		return fmt.Errorf("trace: encoding %s: %w", path, err)
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			f.Close()
			return fmt.Errorf("trace: compressing %s: %w", path, err)
		}
	}
	return f.Close()
}

// Load reads a trace from path (transparently gunzipping ".gz" files)
// through Decode.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("trace: opening %s: %w", path, err)
		}
		defer gz.Close()
		r = gz
	}
	t, err := Decode(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// Decode reads one JSON trace from r and validates it; anything but
// whitespace after the trace is an error. An empty metrics object decodes
// as no metrics, which is how Save writes it, so a decoded trace survives
// a Save and Decode unchanged.
func Decode(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(r)
	var t Trace
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: decoding: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("trace: decoding: data after the trace")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	for i := range t.Events {
		if len(t.Events[i].Metrics) == 0 {
			t.Events[i].Metrics = nil
		}
	}
	return &t, nil
}
