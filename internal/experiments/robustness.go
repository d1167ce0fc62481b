package experiments

import (
	"context"
	"fmt"
	"strings"

	"gpupower/internal/parallel"
	"gpupower/internal/stats"
)

// RobustnessResult extends the paper's single-testbed evaluation: the whole
// pipeline (die instantiation → microbenchmarking → fitting → validation)
// is repeated across several independent die instances (seeds), reporting
// the spread of the headline Fig. 7 accuracy. A reproduction whose
// conclusions hinge on one lucky seed would show here.
type RobustnessResult struct {
	Seeds []uint64
	// MAE[device][i] is the Fig. 7 MAE of the device on Seeds[i].
	MAE map[string][]float64
}

// RunRobustness evaluates the Fig. 7 accuracy across the given seeds.
// Every (seed, device) cell is an independent pipeline on its own rig
// (distinct (device, seed) cache keys), so the full grid fans out across
// the worker pool at once; cell (si, di) writes only MAE[device][si], so
// the result layout is identical to the serial nested loops.
func RunRobustness(ctx context.Context, seeds []uint64) (*RobustnessResult, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("experiments: robustness needs at least one seed")
	}
	devices := AllDeviceNames()
	out := &RobustnessResult{Seeds: append([]uint64(nil), seeds...), MAE: map[string][]float64{}}
	for _, name := range devices {
		out.MAE[name] = make([]float64, len(seeds))
	}
	err := parallel.ForEach(len(seeds)*len(devices), func(i int) error {
		si, di := i/len(devices), i%len(devices)
		seed, name := seeds[si], devices[di]
		res, err := RunFig7Device(ctx, name, seed)
		if err != nil {
			return fmt.Errorf("robustness: seed %d on %s: %w", seed, name, err)
		}
		out.MAE[name][si] = res.MAE
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Stats returns (mean, sample stddev, min, max) of a device's MAE series.
func (r *RobustnessResult) Stats(device string) (mean, std, min, max float64, err error) {
	series := r.MAE[device]
	if len(series) == 0 {
		return 0, 0, 0, 0, fmt.Errorf("experiments: no robustness data for %q", device)
	}
	return stats.Mean(series), stats.StdDev(series), stats.Min(series), stats.Max(series), nil
}

// OrderingStable reports whether the Kepler-worst ordering holds on every
// seed (the paper's qualitative cross-device claim).
func (r *RobustnessResult) OrderingStable() bool {
	xp, tx, k40 := r.MAE["Titan Xp"], r.MAE["GTX Titan X"], r.MAE["Tesla K40c"]
	for i := range r.Seeds {
		if k40[i] < xp[i] || k40[i] < tx[i] {
			return false
		}
	}
	return true
}

// String renders the robustness table.
func (r *RobustnessResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Seed robustness of the Fig. 7 accuracy (%d die instances)\n", len(r.Seeds))
	for _, name := range AllDeviceNames() {
		mean, std, mn, mx, err := r.Stats(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(&sb, "  %-12s MAE %.1f%% ± %.1f (range [%.1f, %.1f]) over seeds %v\n",
			name, mean, std, mn, mx, r.Seeds)
	}
	fmt.Fprintf(&sb, "  Kepler-worst ordering stable on every seed: %v\n", r.OrderingStable())
	return sb.String()
}
