package linalg

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"gpupower/internal/stats"
)

func isNonDecreasing(v []float64) bool {
	for i := 1; i < len(v); i++ {
		if v[i] < v[i-1]-1e-12 {
			return false
		}
	}
	return true
}

// isotonic fits a copy of y in place on p.
func isotonic(p *PAVA, y, weights []float64) ([]float64, error) {
	fit := append([]float64(nil), y...)
	if err := p.FitInPlace(fit, weights); err != nil {
		return nil, err
	}
	return fit, nil
}

func TestIsotonicAlreadyMonotone(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	fit, err := isotonic(new(PAVA), y, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if fit[i] != y[i] {
			t.Fatalf("monotone input changed: %v -> %v", y, fit)
		}
	}
}

func TestIsotonicPoolsViolation(t *testing.T) {
	fit, err := isotonic(new(PAVA), []float64{1, 3, 2, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if !almostEq(fit[i], want[i], 1e-12) {
			t.Fatalf("fit = %v, want %v", fit, want)
		}
	}
}

func TestIsotonicReversedInput(t *testing.T) {
	fit, err := isotonic(new(PAVA), []float64{3, 2, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range fit {
		if !almostEq(v, 2, 1e-12) {
			t.Fatalf("fit = %v, want all 2", fit)
		}
	}
}

func TestIsotonicWeighted(t *testing.T) {
	// Heavy weight on the first point pulls the pooled value toward it.
	fit, err := isotonic(new(PAVA), []float64{3, 1}, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := (3*3.0 + 1*1.0) / 4
	if !almostEq(fit[0], want, 1e-12) || !almostEq(fit[1], want, 1e-12) {
		t.Fatalf("fit = %v, want both %g", fit, want)
	}
}

func TestIsotonicErrors(t *testing.T) {
	var p PAVA
	if err := p.FitInPlace(nil, nil); err == nil {
		t.Fatal("empty input accepted")
	}
	if err := p.FitInPlace([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("weight length mismatch accepted")
	}
	if err := p.FitInPlace([]float64{1}, []float64{0}); err == nil {
		t.Fatal("zero weight accepted")
	}
}

// Property: output is non-decreasing, idempotent, and preserves the
// weighted mean.
func TestIsotonicProperties(t *testing.T) {
	var p PAVA // held across inputs, as step 2 holds it
	f := func(raw []float64) bool {
		if len(raw) == 0 || len(raw) > 50 {
			return true
		}
		y := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			y[i] = math.Mod(v, 1000)
		}
		fit, err := isotonic(&p, y, nil)
		if err != nil {
			return false
		}
		if !isNonDecreasing(fit) {
			return false
		}
		again, err := isotonic(&p, fit, nil)
		if err != nil {
			return false
		}
		for i := range fit {
			if !almostEq(fit[i], again[i], 1e-9) {
				return false
			}
		}
		var sy, sf float64
		for i := range y {
			sy += y[i]
			sf += fit[i]
		}
		return almostEq(sy, sf, 1e-6*(1+math.Abs(sy)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: PAVA produces the L2-optimal monotone fit — it must be at least
// as good as sorting the input (a valid monotone candidate).
func TestIsotonicOptimalityVsSort(t *testing.T) {
	rng := stats.NewRNG(3)
	var p PAVA
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(20)
		y := make([]float64, n)
		for i := range y {
			y[i] = rng.Normal(0, 5)
		}
		fit, err := isotonic(&p, y, nil)
		if err != nil {
			t.Fatal(err)
		}
		sorted := append([]float64(nil), y...)
		sort.Float64s(sorted)
		var sseFit, sseSort float64
		for i := range y {
			sseFit += (fit[i] - y[i]) * (fit[i] - y[i])
			sseSort += (sorted[i] - y[i]) * (sorted[i] - y[i])
		}
		if sseFit > sseSort+1e-9 {
			t.Fatalf("trial %d: PAVA SSE %g worse than sorted candidate %g", trial, sseFit, sseSort)
		}
	}
}

// isotonicBlocks is the historical allocating PAVA — a stack of pooled
// block structs, expanded into a fresh slice — kept as the oracle the
// in-place form must match bit for bit.
func isotonicBlocks(y, weights []float64) []float64 {
	type block struct {
		v, w  float64
		count int
	}
	var blocks []block
	for i := range y {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		blocks = append(blocks, block{v: y[i], w: w, count: 1})
		for len(blocks) >= 2 {
			b := len(blocks) - 1
			if blocks[b-1].v <= blocks[b].v {
				break
			}
			merged := block{
				w:     blocks[b-1].w + blocks[b].w,
				count: blocks[b-1].count + blocks[b].count,
			}
			merged.v = (blocks[b-1].v*blocks[b-1].w + blocks[b].v*blocks[b].w) / merged.w
			blocks = append(blocks[:b-1], merged)
		}
	}
	var out []float64
	for _, b := range blocks {
		for k := 0; k < b.count; k++ {
			out = append(out, b.v)
		}
	}
	return out
}

// TestPAVAFitInPlaceMatchesBlocks compares the in-place PAVA, reused across
// inputs of varying length, and a fresh one against the block oracle on
// random inputs — with ties, long violating runs and weights.
func TestPAVAFitInPlaceMatchesBlocks(t *testing.T) {
	rng := stats.NewRNG(17)
	var p PAVA
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(40)
		y := make([]float64, n)
		for i := range y {
			y[i] = rng.Normal(1, 0.3)
			if trial%3 == 0 {
				y[i] = math.Round(4*y[i]) / 4 // ties
			}
		}
		var weights []float64
		if trial%2 == 1 {
			weights = make([]float64, n)
			for i := range weights {
				weights[i] = 0.1 + rng.Float64()
			}
		}
		want := isotonicBlocks(y, weights)

		got := append([]float64(nil), y...)
		if err := p.FitInPlace(got, weights); err != nil {
			t.Fatal(err)
		}
		fresh, err := isotonic(new(PAVA), y, weights)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) ||
				math.Float64bits(fresh[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: fit[%d] reused %x, fresh %x, blocks %x",
					trial, i, math.Float64bits(got[i]), math.Float64bits(fresh[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// TestPAVAFitInPlaceAllocFree pins the held PAVA at zero allocations once
// its block stack has grown to the input length.
func TestPAVAFitInPlaceAllocFree(t *testing.T) {
	rng := stats.NewRNG(2)
	src := make([]float64, 64)
	for i := range src {
		src[i] = rng.Normal(1, 0.1)
	}
	y := make([]float64, len(src))
	var p PAVA
	if err := p.FitInPlace(append(y[:0], src...), nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		copy(y, src)
		if err := p.FitInPlace(y, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("PAVA.FitInPlace allocates %.1f/op, want 0", allocs)
	}
}
