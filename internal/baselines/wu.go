package baselines

import (
	"fmt"

	"gpupower/internal/core"
	"gpupower/internal/hw"
	"gpupower/internal/scaling"
)

// WuModel is the Wu et al. (HPCA'15)-style comparator: training kernels are
// clustered by how their power scales across V-F configurations (k-means on
// normalized power-scaling curves), and a nearest-centroid classifier on
// utilization features assigns new applications to a cluster. The predicted
// power at a configuration is the application's measured reference power
// multiplied by the cluster's average scaling factor for that configuration.
// The clustering is scaling.Classes, the learner the time classifier uses,
// run over power curves P(Configs[f])/P(ref) instead of time curves.
type WuModel struct {
	Configs  []hw.Config
	RefIndex int
	scaling.Classes
}

// Name is the comparator's label in the baseline table.
func (m *WuModel) Name() string { return "Wu et al.-style (scaling clusters + classifier)" }

// Predict returns the comparator's power estimate for in at cfg.
func (m *WuModel) Predict(in Input, cfg hw.Config) (float64, error) {
	fi := -1
	for i, c := range m.Configs {
		if c == cfg {
			fi = i
			break
		}
	}
	if fi < 0 {
		return 0, fmt.Errorf("baselines: configuration %v unknown to Wu model", cfg)
	}
	return in.RefPower * m.Factor(m.Classify(in.Util), fi), nil
}

// FitWu clusters the training benchmarks into at most k scaling groups.
// Benchmarks whose reference power is zero are skipped (no scaling curve
// exists).
func FitWu(d *core.Dataset, k int, seed uint64) (*WuModel, error) {
	refIdx := -1
	for i, cfg := range d.Configs {
		if cfg == d.Ref {
			refIdx = i
			break
		}
	}
	if refIdx < 0 {
		return nil, fmt.Errorf("baselines: reference configuration not in dataset")
	}
	var curves [][]float64
	var utils []core.Utilization
	for bi := range d.Benchmarks {
		ref := d.Power[bi][refIdx]
		if ref <= 0 {
			continue
		}
		curve := make([]float64, len(d.Configs))
		for fi := range d.Configs {
			curve[fi] = d.Power[bi][fi] / ref
		}
		curves = append(curves, curve)
		utils = append(utils, d.Benchmarks[bi].Util)
	}
	classes, err := scaling.Learn(curves, utils, k, seed)
	if err != nil {
		return nil, fmt.Errorf("baselines: Wu model: %w", err)
	}
	return &WuModel{Configs: append([]hw.Config(nil), d.Configs...), RefIndex: refIdx, Classes: classes}, nil
}
