package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the two closest ranks, so quantile(xs, 0.5) is the
// usual median. It sorts a copy and returns NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// fewest is the smallest of a run's per-operation allocation counts: the
// program's own count, which repeats exactly, without the few objects the
// runtime now and then allocates inside a measured operation.
func fewest(xs []float64) float64 { return quantile(xs, 0) }

// windowRates splits [0, span) into whole windows of width w and returns
// the work completed in each window per second. A completion belongs to the
// window holding its completion time; completions in the trailing partial
// window are dropped, so every rate covers the same width.
func windowRates(at []time.Duration, work []float64, w, span time.Duration) []float64 {
	n := int(span / w)
	rates := make([]float64, n)
	for i, t := range at {
		if k := int(t / w); t >= 0 && k < n {
			rates[k] += work[i]
		}
	}
	for k := range rates {
		rates[k] /= w.Seconds()
	}
	return rates
}

// windowMedians splits [0, span) into whole windows of width w and returns
// the median of the samples completed in each window that has any. A sample
// belongs to the window holding its completion time at[i].
func windowMedians(at []time.Duration, xs []float64, w, span time.Duration) []float64 {
	n := int(span / w)
	byWindow := make([][]float64, n)
	for i, t := range at {
		if k := int(t / w); t >= 0 && k < n {
			byWindow[k] = append(byWindow[k], xs[i])
		}
	}
	var meds []float64
	for _, win := range byWindow {
		if len(win) > 0 {
			meds = append(meds, median(win))
		}
	}
	return meds
}

// The serve workload's timing metrics summarize the slower quarter of a
// run: the upper quartile of per-window latency medians and the lower
// quartile of per-window rates. In interleaved sets on a 2-vCPU cloud host
// these spread least across runs: the host's fast stretches dip back to
// its slow speed, so a median or a fast quantile follows the share of each
// in a run (README.md has the measurements). Fit and cluster use medians.
func slowTime(xs []float64) float64 { return quantile(xs, 0.75) }
func slowRate(xs []float64) float64 { return quantile(xs, 0.25) }

// quartiles describes a sample's quartiles on a report line.
func quartiles(xs []float64) string {
	return fmt.Sprintf("q25 %.6g median %.6g q75 %.6g", quantile(xs, 0.25), median(xs), quantile(xs, 0.75))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
