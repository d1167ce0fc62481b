package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"gpupower/internal/core"
)

// ConvergenceStep is one iteration of the Section III-D alternation.
type ConvergenceStep struct {
	Iteration  int
	VoltDelta  float64
	ParamDelta float64
	SSE        float64
}

// ConvergenceResult records how the estimator converged on one device
// (paper Section V-A: "converged in less than 50 iterations, corresponding
// to about 30 seconds").
//
// FitTime is excluded from JSON so serialized results are byte-for-byte
// reproducible across runs (golden-file comparisons): the iteration trace is
// deterministic, the wall clock is not. Human-facing output (String, the
// markdown report) still shows it.
type ConvergenceResult struct {
	Device     string
	Iterations int
	Converged  bool
	FitTime    time.Duration `json:"-"`
	Steps      []ConvergenceStep
}

// RunConvergenceDevice refits the model on a device with tracing enabled
// and times the fit (dataset collection excluded, as in the paper, which
// times only the estimation algorithm).
func RunConvergenceDevice(ctx context.Context, deviceName string, seed uint64) (*ConvergenceResult, error) {
	r, err := SharedRig(deviceName, seed)
	if err != nil {
		return nil, err
	}
	d, err := r.Dataset(ctx)
	if err != nil {
		return nil, err
	}
	res := &ConvergenceResult{Device: deviceName}
	opts := core.DefaultEstimatorOptions()
	opts.Trace = func(iter int, dv, dx, sse float64) {
		res.Steps = append(res.Steps, ConvergenceStep{Iteration: iter, VoltDelta: dv, ParamDelta: dx, SSE: sse})
	}
	start := time.Now()
	m, err := core.Estimate(ctx, d, opts)
	if err != nil {
		return nil, err
	}
	res.FitTime = time.Since(start)
	res.Iterations = m.Iterations
	res.Converged = m.Converged
	return res, nil
}

// ConvergenceAllResult aggregates the three devices.
type ConvergenceAllResult struct {
	Devices []ConvergenceResult
}

// RunConvergence runs the convergence experiment on all three devices.
func RunConvergence(ctx context.Context, seed uint64) (*ConvergenceAllResult, error) {
	out := &ConvergenceAllResult{}
	for _, name := range AllDeviceNames() {
		r, err := RunConvergenceDevice(ctx, name, seed)
		if err != nil {
			return nil, err
		}
		out.Devices = append(out.Devices, *r)
	}
	return out, nil
}

// String renders the convergence summary.
func (r *ConvergenceAllResult) String() string {
	var sb strings.Builder
	sb.WriteString("Convergence of the Section III-D estimator (paper: < 50 iterations, ~30 s)\n")
	for _, d := range r.Devices {
		fmt.Fprintf(&sb, "  %-12s iterations: %2d  converged: %-5v  fit time: %s\n",
			d.Device, d.Iterations, d.Converged, d.FitTime.Round(time.Millisecond))
		for _, s := range d.Steps {
			if s.Iteration <= 5 || s.Iteration == d.Iterations {
				fmt.Fprintf(&sb, "    iter %2d  Δvolt=%.5f  Δparam=%.5f  SSE=%.0f\n",
					s.Iteration, s.VoltDelta, s.ParamDelta, s.SSE)
			}
		}
	}
	return sb.String()
}
