// Package microbench builds the paper's 83-microbenchmark training suite
// (Section IV): collections that stress the Int, SP, DP and SF units
// (Fig. 3a/3b), shared memory (Fig. 3c), the L2 cache (Fig. 3d), DRAM
// (Fig. 3e), mixed-component kernels, and one Idle pseudo-benchmark —
// 12 + 11 + 12 + 8 + 10 + 10 + 12 + 7 + 1 = 83 kernels.
//
// Each microbenchmark is a kernel descriptor parameterized the way the
// paper's CUDA sources are: the loop iteration count N sets the arithmetic
// intensity (arithmetic instructions per global load/store pair), so
// sweeping N walks the kernel from DRAM-bound to compute-bound, producing
// the utilization gradients of the paper's Fig. 5A.
package microbench

import (
	"fmt"

	"gpupower/internal/hw"
	"gpupower/internal/kernels"
)

// Collection labels one group of microbenchmarks, as in Fig. 5.
type Collection string

// The nine collections of the suite.
const (
	CollInt    Collection = "INT"
	CollSP     Collection = "SP"
	CollDP     Collection = "DP"
	CollSF     Collection = "SF"
	CollL2     Collection = "L2"
	CollShared Collection = "Shared"
	CollDRAM   Collection = "DRAM"
	CollMix    Collection = "MIX"
	CollIdle   Collection = "Idle"
)

// Collections lists the groups in the paper's Fig. 5 presentation order.
var Collections = []Collection{
	CollInt, CollSP, CollDP, CollSF, CollL2, CollShared, CollDRAM, CollMix, CollIdle,
}

// Benchmark is one microbenchmark: a kernel plus its collection label.
type Benchmark struct {
	Collection Collection
	Kernel     *kernels.KernelSpec
}

// Suite generation constants. Thread count and per-iteration operation count
// mirror the paper's kernels (4 independent FMA chains per iteration,
// Fig. 3a/4); the repeat factor stretches a single launch into the
// millisecond range so the profiler's ≥1 s rule needs only modest repetition.
const (
	threads     = 1 << 23 // 8 Mi threads per launch
	opsPerIter  = 4       // r0..r3 dependency chains per loop iteration
	launchScale = 8       // outer repetitions folded into one launch
)

func warps() float64 { return float64(threads) / 32 }

// arithmetic builds the Fig. 3a kernel for a compute unit with loop count n:
// one global load and one store per thread around n iterations of
// opsPerIter fused multiply-adds.
func arithmetic(unit hw.Component, elemBytes float64, n int, name string) *kernels.KernelSpec {
	w := warps() * float64(launchScale)
	bytes := float64(threads) * elemBytes * float64(launchScale)
	k := &kernels.KernelSpec{
		Name: name,
		WarpInstrs: map[hw.Component]float64{
			unit: w * opsPerIter * float64(n),
			// Loop bookkeeping (increment + compare) issues integer work.
			hw.Int: w * 2 * float64(n),
		},
		// The streaming load/store traffic passes through L2 to DRAM.
		L2ReadBytes:     bytes,
		L2WriteBytes:    bytes,
		DRAMReadBytes:   bytes,
		DRAMWriteBytes:  bytes,
		FixedCycles:     5e5,
		StallSeconds:    1.5e-4,
		IssueEfficiency: 0.92,
	}
	if unit == hw.Int {
		// Collapse the bookkeeping into the measured unit.
		k.WarpInstrs = map[hw.Component]float64{
			hw.Int: w * (opsPerIter + 2) * float64(n),
		}
	}
	return k
}

// intSuite: 12 arithmetic-intensity levels on the integer units.
func intSuite() []Benchmark {
	ns := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048}
	out := make([]Benchmark, 0, len(ns))
	for _, n := range ns {
		k := arithmetic(hw.Int, 4, n, fmt.Sprintf("ub_int_n%d", n))
		out = append(out, Benchmark{CollInt, k})
	}
	return out
}

// spSuite: 11 levels on the single-precision units.
func spSuite() []Benchmark {
	ns := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	out := make([]Benchmark, 0, len(ns))
	for _, n := range ns {
		k := arithmetic(hw.SP, 4, n, fmt.Sprintf("ub_sp_n%d", n))
		out = append(out, Benchmark{CollSP, k})
	}
	return out
}

// dpSuite: 12 levels on the double-precision units (8-byte elements).
func dpSuite() []Benchmark {
	ns := []int{1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128}
	out := make([]Benchmark, 0, len(ns))
	for _, n := range ns {
		k := arithmetic(hw.DP, 8, n, fmt.Sprintf("ub_dp_n%d", n))
		out = append(out, Benchmark{CollDP, k})
	}
	return out
}

// sfSuite: 8 levels on the special-function units (Fig. 3b: log/cos/sin
// chains; each transcendental expands to several SFU warp instructions).
func sfSuite() []Benchmark {
	ns := []int{1, 2, 4, 8, 16, 32, 64, 128}
	out := make([]Benchmark, 0, len(ns))
	for _, n := range ns {
		k := arithmetic(hw.SF, 4, n, fmt.Sprintf("ub_sf_n%d", n))
		// A transcendental costs ~4 SFU slots; keep op count but note the
		// SF units are scarce (32/SM), so these saturate quickly.
		out = append(out, Benchmark{CollSF, k})
	}
	return out
}

// l2Suite: 10 kernels whose working set lives in the L2 cache (Fig. 3d,
// based on access-pattern exploration à la cache-aware roofline): heavy L2
// traffic, negligible DRAM traffic, variable trailing compute.
func l2Suite() []Benchmark {
	type v struct {
		iters  int
		intOps int
	}
	vs := []v{
		{64, 0}, {96, 0}, {128, 0}, {192, 0}, {256, 0},
		{64, 64}, {96, 96}, {128, 192}, {192, 384}, {256, 768},
	}
	out := make([]Benchmark, 0, len(vs))
	for i, p := range vs {
		w := warps() * float64(launchScale)
		bytes := float64(threads) * 4 * float64(p.iters) * float64(launchScale)
		k := &kernels.KernelSpec{
			Name: fmt.Sprintf("ub_l2_v%d", i+1),
			WarpInstrs: map[hw.Component]float64{
				hw.Int: w * float64(2*p.iters+p.intOps),
			},
			L2ReadBytes:  bytes,
			L2WriteBytes: bytes,
			// Cold misses only.
			DRAMReadBytes:   bytes / 64,
			DRAMWriteBytes:  bytes / 64,
			FixedCycles:     5e5,
			StallSeconds:    1.5e-4,
			IssueEfficiency: 0.88,
		}
		out = append(out, Benchmark{CollL2, k})
	}
	return out
}

// sharedSuite: 10 kernels bouncing data through shared memory (Fig. 3c:
// conflict-free load/store pairs per iteration).
func sharedSuite() []Benchmark {
	type v struct {
		iters  int
		intOps int
	}
	vs := []v{
		{128, 0}, {192, 0}, {256, 0}, {384, 0}, {512, 0},
		{128, 128}, {192, 256}, {256, 512}, {384, 1024}, {512, 2048},
	}
	out := make([]Benchmark, 0, len(vs))
	for i, p := range vs {
		w := warps() * float64(launchScale)
		bytes := float64(threads) * 4 * float64(p.iters) * float64(launchScale)
		k := &kernels.KernelSpec{
			Name: fmt.Sprintf("ub_shared_v%d", i+1),
			WarpInstrs: map[hw.Component]float64{
				hw.Int: w * float64(2*p.iters+p.intOps),
			},
			SharedLoadBytes:  bytes,
			SharedStoreBytes: bytes,
			// The initial fill and final drain touch global memory lightly.
			L2ReadBytes:     float64(threads) * 4 * float64(launchScale),
			L2WriteBytes:    float64(threads) * 4 * float64(launchScale),
			DRAMReadBytes:   float64(threads) * 4 * float64(launchScale),
			DRAMWriteBytes:  float64(threads) * 4 * float64(launchScale),
			FixedCycles:     5e5,
			StallSeconds:    1.5e-4,
			IssueEfficiency: 0.90,
		}
		out = append(out, Benchmark{CollShared, k})
	}
	return out
}

// dramSuite: 12 streaming kernels with very low arithmetic intensity
// (Fig. 3e: 2 FMAs per loop, small N), sweeping the read/write mix.
func dramSuite() []Benchmark {
	type v struct {
		n         int
		readFrac  float64
		issueBand float64
	}
	vs := []v{
		{1, 0.5, 0.95}, {2, 0.5, 0.95}, {3, 0.5, 0.92}, {4, 0.5, 0.92},
		{1, 0.75, 0.90}, {2, 0.75, 0.90}, {1, 1.0, 0.88}, {2, 1.0, 0.88},
		{6, 0.5, 0.85}, {8, 0.5, 0.85}, {1, 0.25, 0.80}, {2, 0.25, 0.75},
	}
	out := make([]Benchmark, 0, len(vs))
	for i, p := range vs {
		w := warps() * float64(launchScale)
		total := float64(threads) * 4 * 4 * float64(launchScale)
		k := &kernels.KernelSpec{
			Name: fmt.Sprintf("ub_dram_v%d", i+1),
			WarpInstrs: map[hw.Component]float64{
				hw.SP:  w * 2 * float64(p.n),
				hw.Int: w * 2 * float64(p.n),
			},
			L2ReadBytes:     total * p.readFrac,
			L2WriteBytes:    total * (1 - p.readFrac),
			DRAMReadBytes:   total * p.readFrac,
			DRAMWriteBytes:  total * (1 - p.readFrac),
			FixedCycles:     5e5,
			StallSeconds:    1.5e-4,
			IssueEfficiency: p.issueBand,
		}
		out = append(out, Benchmark{CollDRAM, k})
	}
	return out
}

// mixSuite: 7 kernels exercising several components at once, decorrelating
// the regression design.
func mixSuite() []Benchmark {
	w := warps() * float64(launchScale)
	g := float64(threads) * 4 * float64(launchScale)
	mk := func(name string, f func(k *kernels.KernelSpec)) Benchmark {
		k := &kernels.KernelSpec{
			Name:            name,
			WarpInstrs:      map[hw.Component]float64{},
			FixedCycles:     5e5,
			StallSeconds:    1.5e-4,
			IssueEfficiency: 0.90,
		}
		f(k)
		return Benchmark{CollMix, k}
	}
	return []Benchmark{
		mk("ub_mix_sp_dram", func(k *kernels.KernelSpec) {
			k.WarpInstrs[hw.SP] = w * 192
			k.WarpInstrs[hw.Int] = w * 64
			k.L2ReadBytes, k.DRAMReadBytes = g*3, g*3
			k.L2WriteBytes, k.DRAMWriteBytes = g, g
		}),
		mk("ub_mix_int_shared", func(k *kernels.KernelSpec) {
			k.WarpInstrs[hw.Int] = w * 256
			k.SharedLoadBytes, k.SharedStoreBytes = g*24, g*24
			k.L2ReadBytes, k.DRAMReadBytes = g, g
		}),
		mk("ub_mix_sp_sf_l2", func(k *kernels.KernelSpec) {
			k.WarpInstrs[hw.SP] = w * 128
			k.WarpInstrs[hw.SF] = w * 48
			k.WarpInstrs[hw.Int] = w * 32
			k.L2ReadBytes, k.L2WriteBytes = g*32, g*16
			k.DRAMReadBytes = g / 2
		}),
		mk("ub_mix_dp_dram", func(k *kernels.KernelSpec) {
			k.WarpInstrs[hw.DP] = w * 12
			k.WarpInstrs[hw.Int] = w * 16
			k.L2ReadBytes, k.DRAMReadBytes = g*2, g*2
			k.L2WriteBytes, k.DRAMWriteBytes = g, g
		}),
		mk("ub_mix_all_compute", func(k *kernels.KernelSpec) {
			k.WarpInstrs[hw.SP] = w * 160
			k.WarpInstrs[hw.Int] = w * 160
			k.WarpInstrs[hw.SF] = w * 24
			k.WarpInstrs[hw.DP] = w * 4
			k.L2ReadBytes, k.DRAMReadBytes = g, g
		}),
		mk("ub_mix_shared_dram", func(k *kernels.KernelSpec) {
			k.WarpInstrs[hw.Int] = w * 64
			k.SharedLoadBytes, k.SharedStoreBytes = g*16, g*16
			k.L2ReadBytes, k.DRAMReadBytes = g*3, g*3
			k.L2WriteBytes, k.DRAMWriteBytes = g*2, g*2
		}),
		mk("ub_mix_hot", func(k *kernels.KernelSpec) {
			// The highest-power kernel of the suite: every component busy
			// (the paper's peak dynamic share, ~49%, lands on a Mix kernel).
			k.WarpInstrs[hw.SP] = w * 224
			k.WarpInstrs[hw.Int] = w * 128
			k.WarpInstrs[hw.SF] = w * 32
			k.SharedLoadBytes, k.SharedStoreBytes = g*12, g*12
			k.L2ReadBytes, k.L2WriteBytes = g*4, g*2
			k.DRAMReadBytes, k.DRAMWriteBytes = g*4, g*2
		}),
	}
}

// idleBenchmark is the suite's "GPU awake, no kernel" entry.
func idleBenchmark() Benchmark {
	return Benchmark{CollIdle, &kernels.KernelSpec{
		Name:            "ub_idle",
		WarpInstrs:      map[hw.Component]float64{},
		FixedCycles:     1e6,
		IssueEfficiency: 1,
	}}
}

// Suite returns the full 83-microbenchmark training suite.
func Suite() []Benchmark {
	var out []Benchmark
	out = append(out, intSuite()...)
	out = append(out, spSuite()...)
	out = append(out, dpSuite()...)
	out = append(out, sfSuite()...)
	out = append(out, l2Suite()...)
	out = append(out, sharedSuite()...)
	out = append(out, dramSuite()...)
	out = append(out, mixSuite()...)
	out = append(out, idleBenchmark())
	return out
}

// SuiteSize is the expected benchmark count (83, per the paper).
const SuiteSize = 83
