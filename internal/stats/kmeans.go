package stats

import "math"

// SqDist returns the squared Euclidean distance of two equal-length vectors.
func SqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// KMeans clusters points with Lloyd's algorithm and deterministic
// farthest-point seeding (first center from the seed), returning the
// assignment per point and the final centroids. k is clamped to the point
// count. Used by scaling.Learn, the scaling-class learner behind the
// Wu-style baseline and the performance-scaling classifier.
func KMeans(points [][]float64, k int, seed uint64) (assign []int, centers [][]float64) {
	n := len(points)
	if n == 0 || k < 1 {
		return nil, nil
	}
	if k > n {
		k = n
	}
	dim := len(points[0])

	centers = make([][]float64, 0, k)
	first := int(seed % uint64(n))
	centers = append(centers, append([]float64(nil), points[first]...))
	for len(centers) < k {
		bestI, bestD := 0, -1.0
		for i, p := range points {
			dMin := math.Inf(1)
			for _, c := range centers {
				if d := SqDist(p, c); d < dMin {
					dMin = d
				}
			}
			if dMin > bestD {
				bestI, bestD = i, dMin
			}
		}
		centers = append(centers, append([]float64(nil), points[bestI]...))
	}

	assign = make([]int, n)
	for iter := 0; iter < 100; iter++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c := range centers {
				if d := SqDist(p, centers[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		counts := make([]int, k)
		for c := range centers {
			for j := range centers[c] {
				centers[c][j] = 0
			}
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for j := 0; j < dim; j++ {
				centers[c][j] += p[j]
			}
		}
		for c := range centers {
			if counts[c] == 0 {
				continue
			}
			inv := 1 / float64(counts[c])
			for j := range centers[c] {
				centers[c][j] *= inv
			}
		}
	}
	return assign, centers
}
