package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"gpupower/internal/core"
	"gpupower/internal/fleet"
	"gpupower/internal/hw"
	"gpupower/internal/linalg"
	"gpupower/internal/parallel"
)

// The fit workload: a nine-member fleet (three instances of each catalog
// device) measured once, then a timed phase that alternates one lone fit of
// the first GTX Titan X member with one fleet round fitting all nine.
// Nearly all of its time is in linalg, core and parallel, which the other
// workloads' timed phases do not run.
const (
	fitMembers = 9
	// fitLone indexes the lone-fit member: fleet.Registry deals the
	// catalog round-robin, so member 1 is the first GTX Titan X.
	fitLone = 1
)

// fitInputs is what one fit setup prepares: the open members and their
// measured training datasets.
type fitInputs struct {
	members  []*fleet.Member
	datasets []*core.Dataset
}

func fitPrepare(ctx context.Context, b *bench, parent int, op int64) (*fitInputs, error) {
	sp := b.tr.begin("fleet.open_members", parent, op)
	members, err := fleet.OpenMembers(fleet.Registry(fitMembers, b.seed))
	b.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = b.tr.begin("fleet.build_member_datasets", parent, op)
	datasets, err := fleet.BuildMemberDatasets(ctx, members)
	b.tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &fitInputs{members: members, datasets: datasets}, nil
}

func runFit(ctx context.Context, b *bench) error {
	runtime.GOMAXPROCS(runtime.NumCPU())
	in, err := setup(b, func(parent int, op int64) (*fitInputs, error) {
		return fitPrepare(ctx, b, parent, op)
	})
	if err != nil {
		return err
	}
	if name := in.members[fitLone].Device.Name; name != "GTX Titan X" {
		return fmt.Errorf("fit: member %d is a %s, want the GTX Titan X", fitLone, name)
	}

	// Reference fits, one per dataset: every timed fit must reproduce its
	// dataset's bits, compared as serialized bytes (JSON floats round-trip
	// exactly).
	refs := make([][]byte, fitMembers)
	loneMS := make([]float64, fitMembers)
	var iterations int
	for i, d := range in.datasets {
		start := time.Now()
		m, err := core.Estimate(ctx, d, nil)
		loneMS[i] = ms(time.Since(start))
		if err != nil {
			return fmt.Errorf("fit: reference fit of %s: %w", in.members[i].Spec, err)
		}
		if refs[i], err = json.Marshal(m); err != nil {
			return err
		}
		if i == fitLone {
			iterations = m.Iterations
		}
	}
	b.layer["core.estimate_iterations"] = float64(iterations)
	b.report("estimate_iterations", float64(iterations), "count", in.members[fitLone].Spec.String())
	// Accuracy is measured on the fixed catalog fleet, so it repeats
	// exactly whatever the seed.
	members, models, err := catalogFleet(ctx, b, -1, 0)
	if err != nil {
		return err
	}
	if err := validateModels(ctx, b, members, models); err != nil {
		return err
	}
	if b.traced() {
		if err := fitDatasetCounts(ctx, b); err != nil {
			return err
		}
	}

	checkRound := func(fits []*core.Model) {
		for i, m := range fits {
			got, err := json.Marshal(m)
			b.check(err == nil && bytes.Equal(got, refs[i]), "fleet round: %s differs from its lone fit", in.members[i].Spec)
		}
	}
	// One untimed round first warms the heap and caches; it is checked
	// like the timed ones.
	warm, err := fleet.FitDatasets(ctx, in.datasets, nil)
	if err != nil {
		return err
	}
	checkRound(warm)

	var nnls *nnlsProbe
	if b.traced() {
		if nnls, err = newNNLSProbe(in.datasets[fitLone]); err != nil {
			return err
		}
	}
	var (
		lone, loneTraced, loneBare, rounds []float64
		loneCPU, roundsCPU                 []float64
		allocs, bytesAlloc, gcs            []float64
		ms0, ms1                           runtime.MemStats
	)
	deadline := b.startPhase()
	for op := int64(0); more(op, deadline); op++ {
		b.tick()
		// Traced runs alternate spanned and bare lone fits: the bare ones
		// give the tracing overhead and the allocation counts.
		spanned := b.traced() && op%2 == 0
		opts := core.DefaultEstimatorOptions()
		sp := -1
		if spanned {
			sp = b.tr.begin("core.estimate", -1, op)
			last := b.tr.now()
			opts.Trace = func(int, float64, float64, float64) {
				now := b.tr.now()
				b.tr.add("core.estimate.iteration", sp, op, last, now)
				last = now
			}
		} else if b.traced() {
			runtime.ReadMemStats(&ms0)
		}
		start, cpu0 := time.Now(), cpuTime()
		m, err := core.Estimate(ctx, in.datasets[fitLone], opts)
		d := ms(time.Since(start))
		loneCPU = append(loneCPU, ms(cpuTime()-cpu0))
		b.tr.end(sp)
		if spanned {
			loneTraced = append(loneTraced, d)
		} else if b.traced() {
			runtime.ReadMemStats(&ms1)
			allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
			bytesAlloc = append(bytesAlloc, float64(ms1.TotalAlloc-ms0.TotalAlloc))
			loneBare = append(loneBare, d)
		}
		var got []byte
		if err == nil {
			got, err = json.Marshal(m)
		}
		b.check(err == nil && bytes.Equal(got, refs[fitLone]), "lone fit differs from its reference (err %v)", err)
		lone = append(lone, d)

		if b.traced() {
			runtime.ReadMemStats(&ms0)
		}
		sp = b.tr.begin("fleet.fit_datasets", -1, op)
		start, cpu0 = time.Now(), cpuTime()
		fits, err := fleet.FitDatasets(ctx, in.datasets, nil)
		rounds = append(rounds, ms(time.Since(start)))
		roundsCPU = append(roundsCPU, ms(cpuTime()-cpu0))
		b.tr.end(sp)
		if b.traced() {
			runtime.ReadMemStats(&ms1)
			gcs = append(gcs, float64(ms1.NumGC-ms0.NumGC))
		}
		if err != nil {
			b.check(false, "fleet round: %v", err)
		} else {
			checkRound(fits)
		}

		if b.traced() {
			sp = b.tr.begin("linalg.nnls", -1, op)
			err := nnls.solve()
			b.tr.end(sp)
			b.check(err == nil, "nnls probe: %v", err)
		}
	}
	b.endPhase()

	round := median(rounds)
	b.e2e["primary_ms"] = median(lone)
	b.e2e["secondary_ms"] = round
	b.e2e["throughput_per_s"] = fitMembers / (round / 1e3)
	b.report("fit_ms", b.e2e["primary_ms"], "ms", fmt.Sprintf("median of %d lone fits (%s)", len(lone), quartiles(lone)))
	b.report("fleet_round_ms", b.e2e["secondary_ms"], "ms", fmt.Sprintf("median of %d rounds (%s)", len(rounds), quartiles(rounds)))
	b.report("fit_cpu_ms", median(loneCPU), "ms", fmt.Sprintf("(%s)", quartiles(loneCPU)))
	b.report("fleet_round_cpu_ms", median(roundsCPU), "ms", fmt.Sprintf("(%s)", quartiles(roundsCPU)))
	b.report("models_per_min", 60*b.e2e["throughput_per_s"], "1/min", fmt.Sprintf("%d models / fleet_round_ms", fitMembers))

	if b.traced() {
		self := selfByName(b.tr.spans)
		b.layer["core.estimate_iter_ms"] = median(self["core.estimate.iteration"])
		b.layer["core.allocs_per_fit"] = fewest(allocs)
		b.layer["core.bytes_per_fit"] = fewest(bytesAlloc)
		b.layer["runtime.gc_per_fleet_round"] = median(gcs)
		b.layer["linalg.nnls_ms"] = median(self["linalg.nnls"])
		var sum float64
		for _, v := range loneMS {
			sum += v
		}
		b.layer["fleet.parallel_efficiency"] = sum / (float64(parallel.Workers()) * round)
		bare := median(loneBare)
		b.layer["trace.overhead_pct"] = 100 * (median(loneTraced) - bare) / bare
	}
	return nil
}

// fitDatasetCounts measures the nine training datasets again, one at a
// time on freshly opened members, for the per-dataset time and allocation
// count that the concurrent setup cannot attribute.
func fitDatasetCounts(ctx context.Context, b *bench) error {
	var times []float64
	var allocs uint64
	var ms0, ms1 runtime.MemStats
	for i, spec := range fleet.Registry(fitMembers, b.seed) {
		m, err := fleet.OpenMember(spec)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms0)
		sp := b.tr.begin("profiler.dataset", -1, int64(i))
		start := time.Now()
		_, err = m.BuildDataset(ctx)
		times = append(times, ms(time.Since(start)))
		b.tr.end(sp)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return err
		}
		allocs += ms1.Mallocs - ms0.Mallocs
	}
	b.layer["profiler.dataset_ms"] = median(times)
	b.layer["profiler.allocs_per_dataset"] = float64(allocs) / fitMembers
	return nil
}

// nnlsProbe is the estimator's step-3 least-squares system for one
// dataset — every benchmark at every ladder configuration — assembled with
// all voltages at 1, solved through the workspace the estimator uses.
type nnlsProbe struct {
	ws  *linalg.NNLSWorkspace
	a   *linalg.Matrix
	rhs []float64
	x   []float64
}

func newNNLSProbe(d *core.Dataset) (*nnlsProbe, error) {
	const cols = 11 // β0..β3, six core-domain ω, ω_mem
	rows := len(d.Benchmarks) * len(d.Configs)
	p := &nnlsProbe{
		ws:  linalg.NewNNLSWorkspace(rows, cols),
		a:   linalg.NewMatrix(rows, cols),
		rhs: make([]float64, rows),
		x:   make([]float64, cols),
	}
	r := 0
	for k, cfg := range d.Configs {
		for bi, bench := range d.Benchmarks {
			row := p.a.RowView(r)
			row[0], row[1], row[2], row[3] = 1, cfg.CoreMHz, 1, cfg.MemMHz
			for i, c := range core.CoreOmegaOrder {
				row[4+i] = cfg.CoreMHz * bench.Util[c]
			}
			row[cols-1] = cfg.MemMHz * bench.Util[hw.DRAM]
			p.rhs[r] = d.Power[bi][k]
			r++
		}
	}
	return p, p.solve()
}

func (p *nnlsProbe) solve() error { return p.ws.SolveInto(p.x, p.a, p.rhs) }
