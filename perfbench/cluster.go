package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"gpupower/internal/cluster"
	"gpupower/internal/core"
	"gpupower/internal/fleet"
	"gpupower/internal/governor"
	"gpupower/internal/parallel"
	"gpupower/internal/suites"
)

// The cluster workload: the fleet simulator under model-driven DVFS, run
// again and again on the same seeded traffic. Only cluster code runs in its
// timed phase, and a run is short (tens of milliseconds), so one run of the
// benchmark gathers hundreds of samples.
const (
	clusterGPUs    = 500
	clusterHorizon = 2  // simulated seconds of arrivals
	clusterRate    = 60 // jobs per second per GPU
)

// clusterMix is the job mix: compute-bound (BLCKSC, CUTCP), DRAM-bound
// (LBM) and balanced (GEMM) validation applications, weighted toward the
// compute-heavy end.
var clusterMix = []cluster.KernelClass{
	{Name: "BLCKSC", Weight: 4},
	{Name: "LBM", Weight: 3},
	{Name: "CUTCP", Weight: 2},
	{Name: "GEMM", Weight: 1},
}

// clusterInputs is what one cluster setup prepares: one fitted member per
// catalog device and a simulator per policy over the same fleet.
type clusterInputs struct {
	members      []*fleet.Member
	models       []*core.Model
	static, dvfs *cluster.Simulator
	newSimMS     float64
	hits, misses uint64
}

func clusterPrepare(ctx context.Context, b *bench, parent int, op int64) (*clusterInputs, error) {
	members, models, err := catalogFleet(ctx, b, parent, op)
	if err != nil {
		return nil, err
	}

	sp := b.tr.begin("profiler.profile_classes", parent, op)
	devices := make([]cluster.DeviceModel, len(members))
	for i, m := range members {
		classes := make([]cluster.DeviceClass, len(clusterMix))
		for j, c := range clusterMix {
			app, err := suites.ByShort(c.Name)
			if err != nil {
				return nil, err
			}
			prof, err := m.Profiler.ProfileApp(ctx, app.App, models[i].Ref)
			if err != nil {
				return nil, err
			}
			u, err := core.AppUtilization(m.Device, prof, models[i].L2BytesPerCycle)
			if err != nil {
				return nil, err
			}
			var refSeconds float64
			for _, k := range prof.Kernels {
				refSeconds += k.Seconds
			}
			classes[j] = cluster.DeviceClass{Util: u, RefSeconds: refSeconds}
		}
		devices[i] = cluster.DeviceModel{Device: m.Device, Model: models[i], Classes: classes}
	}
	b.tr.end(sp)

	opts := cluster.Options{
		GPUs:           clusterGPUs,
		HorizonSeconds: clusterHorizon,
		Seed:           b.seed,
		Fleet:          devices,
		Classes:        clusterMix,
		Workload: cluster.Workload{
			Process:    cluster.Poisson,
			RatePerGPU: clusterRate,
			SlackMin:   2,
			SlackMax:   6,
		},
		Governor:   governor.MinEnergy,
		MaxStretch: 2, // never plan past the tightest slack
	}
	in := &clusterInputs{members: members, models: models}
	opts.Policy = cluster.Static
	if in.static, err = cluster.NewSimulator(ctx, &opts); err != nil {
		return nil, err
	}
	opts.Policy = cluster.ModelDVFS
	h0, m0 := cluster.Decisions.Stats()
	sp = b.tr.begin("cluster.new_simulator", parent, op)
	start := time.Now()
	in.dvfs, err = cluster.NewSimulator(ctx, &opts)
	in.newSimMS = ms(time.Since(start))
	b.tr.end(sp)
	h1, m1 := cluster.Decisions.Stats()
	in.hits, in.misses = h1-h0, m1-m0
	return in, err
}

func runCluster(ctx context.Context, b *bench) error {
	runtime.GOMAXPROCS(runtime.NumCPU())
	var newSim []float64
	var hits, misses uint64
	in, err := setup(b, func(parent int, op int64) (*clusterInputs, error) {
		in, err := clusterPrepare(ctx, b, parent, op)
		if err == nil {
			newSim = append(newSim, in.newSimMS)
			hits, misses = hits+in.hits, misses+in.misses
		}
		return in, err
	})
	if err != nil {
		return err
	}

	// The sequential-mode run is the oracle every timed run must match
	// bit for bit; the static-clock run is the energy baseline.
	var static, oracle, got cluster.Metrics
	if err := in.static.RunInto(ctx, &static); err != nil {
		return err
	}
	prev := parallel.SetSequential(true)
	err = in.dvfs.RunInto(ctx, &oracle)
	parallel.SetSequential(prev)
	if err != nil {
		return err
	}
	if oracle.Events == 0 {
		return fmt.Errorf("cluster: the oracle run dispatched no events")
	}
	if err := validateModels(ctx, b, in.members, in.models); err != nil {
		return err
	}
	saved := 100 * (static.EnergyJ - oracle.EnergyJ) / static.EnergyJ
	missPct := 100 * oracle.MissRate
	b.report("energy_saved_pct", saved, "%", "model-dvfs against static clocks")
	b.report("deadline_miss_pct", missPct, "%", "model-dvfs")
	b.report("events_per_run", float64(oracle.Events), "count", "")

	check := func(mode string, err error) {
		b.check(err == nil && got.TraceHash == oracle.TraceHash && got.Events == oracle.Events,
			"%s run: trace %x events %d, oracle %x %d (err %v)", mode, got.TraceHash, got.Events, oracle.TraceHash, oracle.Events, err)
	}
	var (
		sharded, shardedBare, sequential []float64
		shardedCPU, sequentialCPU        []float64
		shardedAt, sequentialAt          []time.Duration
		allocs                           []float64
		ms0, ms1                         runtime.MemStats
	)
	deadline := b.startPhase()
	phase := time.Now()
	for op := int64(0); more(op, deadline); op++ {
		b.tick()
		// Traced runs alternate spanned and bare sharded runs: the bare
		// ones give the tracing overhead and the allocation counts.
		bare := b.traced() && op%2 == 1
		sp := -1
		if bare {
			runtime.ReadMemStats(&ms0)
		} else {
			sp = b.tr.begin("cluster.run.sharded", -1, op)
		}
		start, cpu0 := time.Now(), cpuTime()
		err := in.dvfs.RunInto(ctx, &got)
		d, cpu := ms(time.Since(start)), ms(cpuTime()-cpu0)
		b.tr.end(sp)
		if bare {
			runtime.ReadMemStats(&ms1)
			allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
			shardedBare = append(shardedBare, d)
		}
		sharded = append(sharded, d)
		shardedCPU = append(shardedCPU, cpu)
		shardedAt = append(shardedAt, time.Since(phase))
		check("sharded", err)

		prev := parallel.SetSequential(true)
		sp = b.tr.begin("cluster.run.sequential", -1, op)
		start, cpu0 = time.Now(), cpuTime()
		err = in.dvfs.RunInto(ctx, &got)
		sequential = append(sequential, ms(time.Since(start)))
		sequentialCPU = append(sequentialCPU, ms(cpuTime()-cpu0))
		sequentialAt = append(sequentialAt, time.Since(phase))
		b.tr.end(sp)
		parallel.SetSequential(prev)
		check("sequential", err)
	}
	b.endPhase()
	span := time.Since(phase)

	shardedWin := windowMedians(shardedAt, sharded, time.Second, span)
	sequentialWin := windowMedians(sequentialAt, sequential, time.Second, span)
	run := median(shardedWin)
	b.e2e["primary_ms"] = run
	b.e2e["secondary_ms"] = median(sequentialWin)
	b.e2e["throughput_per_s"] = float64(oracle.Events) / (run / 1e3)
	note := fmt.Sprintf("%d runs, median of %d one-second window medians", len(sharded), len(shardedWin))
	b.report("sharded_run_ms", run, "ms", fmt.Sprintf("%s (%s)", note, quartiles(shardedWin)))
	b.report("sequential_run_ms", b.e2e["secondary_ms"], "ms", fmt.Sprintf("%s (%s)", note, quartiles(sequentialWin)))
	b.report("sharded_cpu_ms", median(shardedCPU), "ms", fmt.Sprintf("(%s)", quartiles(windowMedians(shardedAt, shardedCPU, time.Second, span))))
	b.report("sequential_cpu_ms", median(sequentialCPU), "ms", fmt.Sprintf("(%s)", quartiles(windowMedians(sequentialAt, sequentialCPU, time.Second, span))))
	b.report("events_per_s", b.e2e["throughput_per_s"], "1/s", "events per run / sharded_run_ms")

	if hits+misses == 0 {
		return fmt.Errorf("cluster: building the simulators looked up no decisions")
	}
	b.layer["cluster.new_simulator_ms"] = median(newSim)
	b.layer["cluster.decisions_hit_ratio"] = float64(hits) / float64(hits+misses)
	b.layer["cluster.events_per_run"] = float64(oracle.Events)
	b.layer["cluster.ns_per_event"] = run * 1e6 / float64(oracle.Events)
	b.layer["cluster.shard_speedup"] = b.e2e["secondary_ms"] / run
	b.layer["cluster.sojourn_p99_ms"] = oracle.P99Seconds * 1e3
	b.layer["cluster.energy_saved_pct"] = saved
	b.layer["cluster.deadline_miss_pct"] = missPct
	if b.traced() {
		self := selfByName(b.tr.spans)
		b.layer["cluster.allocs_per_run"] = fewest(allocs)
		bare := median(shardedBare)
		b.layer["trace.overhead_pct"] = 100 * (median(self["cluster.run.sharded"]) - bare) / bare
	}
	return nil
}
