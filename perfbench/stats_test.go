package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 || xs[1] != 1 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v, want 7", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no samples = %v, want NaN", got)
	}
	if got := fewest([]float64{5, 3, 9}); got != 3 {
		t.Errorf("fewest = %v, want 3", got)
	}
	if slowTime(xs) != 3.25 || slowRate(xs) != 1.75 {
		t.Errorf("slowTime, slowRate = %v, %v; want the upper and lower quartiles", slowTime(xs), slowRate(xs))
	}
}

func TestWindowRates(t *testing.T) {
	s := time.Second
	at := []time.Duration{s / 2, 1200 * time.Millisecond, 1700 * time.Millisecond, 2100 * time.Millisecond}
	work := []float64{10, 20, 5, 7}
	// Two whole windows fit in 2.5 s; the completion at 2.1 s falls in the
	// partial third window and is dropped.
	got := windowRates(at, work, s, 2500*time.Millisecond)
	want := []float64{10, 25}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("windowRates = %v, want %v", got, want)
	}
	// Half-second windows report per-second rates.
	got = windowRates(at, work, s/2, s)
	if len(got) != 2 || got[0] != 0 || got[1] != 20 {
		t.Errorf("half-second windowRates = %v, want [0 20]", got)
	}
}

func TestWindowMedians(t *testing.T) {
	s := time.Second
	at := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond,
		2100 * time.Millisecond, 2200 * time.Millisecond, 3100 * time.Millisecond}
	xs := []float64{1, 9, 2, 5, 7, 100}
	// Window 1 is empty and skipped; the sample at 3.1 s is past the last
	// whole window of a 3.5 s span.
	got := windowMedians(at, xs, s, 3500*time.Millisecond)
	want := []float64{2, 6}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("windowMedians = %v, want %v", got, want)
	}
}
