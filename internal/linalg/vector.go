package linalg

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. It panics on length mismatch.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v, guarding against overflow.
func Norm2(v []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	if scale == 0 {
		return 0
	}
	return scale * math.Sqrt(ssq)
}

// MaxAbsDiff returns max_i |a[i]-b[i]|.
func MaxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: MaxAbsDiff length mismatch %d vs %d", len(a), len(b)))
	}
	var mx float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > mx {
			mx = d
		}
	}
	return mx
}
