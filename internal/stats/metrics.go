package stats

import (
	"fmt"
	"math"
	"sort"
)

// MAPE returns the mean absolute percentage error, in percent, matching the
// paper's accuracy metric ("mean absolute error" of 6.9%, 6.0%, 12.4% is a
// percentage of the measured power).
func MAPE(pred, meas []float64) (float64, error) {
	if err := sameLen(pred, meas); err != nil {
		return 0, err
	}
	var s float64
	n := 0
	for i := range pred {
		if meas[i] == 0 { //lint:ignore floateq MAPE-style guard: exactly-zero measurements are skipped, not divided (mirrored by examples/virtual-sensor)
			continue
		}
		s += math.Abs(pred[i]-meas[i]) / math.Abs(meas[i])
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("stats: MAPE undefined, all measurements zero")
	}
	return 100 * s / float64(n), nil
}

// MeanPercentError returns the signed mean error in percent (positive means
// over-prediction), as plotted per-benchmark in paper Fig. 8.
func MeanPercentError(pred, meas []float64) (float64, error) {
	if err := sameLen(pred, meas); err != nil {
		return 0, err
	}
	var s float64
	n := 0
	for i := range pred {
		if meas[i] == 0 { //lint:ignore floateq MAPE-style guard: exactly-zero measurements are skipped, not divided (mirrored by examples/virtual-sensor)
			continue
		}
		s += (pred[i] - meas[i]) / meas[i]
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("stats: mean percent error undefined, all measurements zero")
	}
	return 100 * s / float64(n), nil
}

func sameLen(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("stats: length mismatch %d vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		return fmt.Errorf("stats: empty input")
	}
	return nil
}

// Mean returns the arithmetic mean of v. It panics on empty input.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		panic("stats: Mean of empty slice")
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Median returns the median of v (average of the middle two for even n).
// It panics on empty input.
func Median(v []float64) float64 {
	if len(v) == 0 {
		panic("stats: Median of empty slice")
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	// Midpoint form avoids overflow for extreme magnitudes.
	lo, hi := c[n/2-1], c[n/2]
	return lo + (hi-lo)/2
}

// StdDev returns the sample standard deviation of v (n-1 denominator);
// zero for fewer than two samples.
func StdDev(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(v)-1))
}

// Max returns the maximum of v. It panics on empty input.
func Max(v []float64) float64 {
	if len(v) == 0 {
		panic("stats: Max of empty slice")
	}
	mx := v[0]
	for _, x := range v[1:] {
		if x > mx {
			mx = x
		}
	}
	return mx
}

// Min returns the minimum of v. It panics on empty input.
func Min(v []float64) float64 {
	if len(v) == 0 {
		panic("stats: Min of empty slice")
	}
	mn := v[0]
	for _, x := range v[1:] {
		if x < mn {
			mn = x
		}
	}
	return mn
}
