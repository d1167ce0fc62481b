package scaling

import (
	"fmt"

	"gpupower/internal/core"
	"gpupower/internal/hw"
	"gpupower/internal/stats"
)

// Classes is the k-means scaling-class learner shared by the time
// classifier (Train, over execution-time curves) and the Wu et al.-style
// power baseline (over power curves): per-kernel scaling curves are
// clustered with stats.KMeans, each non-empty class keeps its members' mean
// curve and mean utilization centroid, and an application joins the class
// whose centroid is nearest in squared distance.
type Classes struct {
	// curves[c][f] is class c's mean scaling factor at configuration f.
	curves [][]float64
	// centroidUtil[c] is class c's mean utilization feature vector, in
	// hw.Components order.
	centroidUtil [][]float64
}

// Learn clusters curves[i], the scaling curve of a training kernel with
// utilization utils[i], into at most k classes (k is clamped to the curve
// count); classes left empty by the clustering are dropped, and as every
// curve joins a class, at least one remains.
func Learn(curves [][]float64, utils []core.Utilization, k int, seed uint64) (Classes, error) {
	if k < 1 {
		return Classes{}, fmt.Errorf("scaling: class count %d must be >= 1", k)
	}
	if len(curves) == 0 {
		return Classes{}, fmt.Errorf("scaling: no usable training curves")
	}
	if k > len(curves) {
		k = len(curves)
	}
	assign, _ := stats.KMeans(curves, k, seed)

	var c Classes
	for cls := 0; cls < k; cls++ {
		var members []int
		for i, a := range assign {
			if a == cls {
				members = append(members, i)
			}
		}
		if len(members) == 0 {
			continue
		}
		curve := make([]float64, len(curves[0]))
		cu := make([]float64, len(hw.Components))
		for _, i := range members {
			for fi := range curve {
				curve[fi] += curves[i][fi]
			}
			for j, comp := range hw.Components {
				cu[j] += utils[i][comp]
			}
		}
		inv := 1 / float64(len(members))
		for fi := range curve {
			curve[fi] *= inv
		}
		for j := range cu {
			cu[j] *= inv
		}
		c.curves = append(c.curves, curve)
		c.centroidUtil = append(c.centroidUtil, cu)
	}
	return c, nil
}

// K returns the number of scaling classes.
func (c *Classes) K() int { return len(c.curves) }

// Factor returns class cls's mean scaling factor at configuration index fi.
func (c *Classes) Factor(cls, fi int) float64 { return c.curves[cls][fi] }

// sqDistToCentroid is the squared distance between u, flattened in
// hw.Components order, and class cls's utilization centroid.
func (c *Classes) sqDistToCentroid(u core.Utilization, cls int) float64 {
	cu := c.centroidUtil[cls]
	var s float64
	for i, comp := range hw.Components {
		d := u[comp] - cu[i]
		s += d * d
	}
	return s
}

// Classify returns the index of the scaling class nearest to an
// application's utilization vector.
func (c *Classes) Classify(u core.Utilization) int {
	best, bestD := 0, c.sqDistToCentroid(u, 0)
	for cls := 1; cls < len(c.centroidUtil); cls++ {
		if d := c.sqDistToCentroid(u, cls); d < bestD {
			best, bestD = cls, d
		}
	}
	return best
}
