// Package cluster is a discrete-event simulation of a GPU fleet serving job
// streams under model-driven DVFS (DESIGN.md §12).
//
// The paper fits a multi-domain voltage-frequency power model to one GPU;
// this package asks the fleet-scale question the model exists to answer:
// across hundreds to thousands of GPUs serving real traffic, what do
// model-driven per-job operating-point decisions buy over static clocks, in
// energy, deadline misses and latency? Each GPU is an independent
// single-server FIFO queue; jobs arrive from seeded stochastic streams
// (Poisson, Gamma-renewal, diurnal), carry a kernel class and a deadline,
// and execute against the fitted power model at whatever operating point the
// active policy chooses. Power integrates to energy; completions feed a
// log-binned latency histogram.
//
// The engine is built for raw event throughput — millions of events per
// second on one core:
//
//   - Pooled, intrusively-linked event records on an indexed binary heap
//     (event.go): zero steady-state allocations, pinned by AllocsPerRun.
//   - Governor decisions resolved once per (device model, kernel class)
//     through the DecisionCache (decision.go), keyed by prediction-surface
//     identity, so the event loop's dispatch cost is array indexing, not a
//     ladder scan.
//   - Per-GPU splitmix64 substreams (workload.go), so each GPU's history is
//     independent of sharding, and parallel runs — GPUs sharded across
//     internal/parallel workers, per-GPU accumulators folded in GPU index
//     order — are bitwise-identical to the serial engine
//     (parallel.SetSequential(true) is the oracle, as everywhere in this
//     repo).
package cluster

import (
	"context"
	"fmt"
	"math"

	"gpupower/internal/backend"
	"gpupower/internal/core"
	"gpupower/internal/governor"
	"gpupower/internal/hw"
	"gpupower/internal/parallel"
)

// KernelClass is one class of the fleet's job mix — a named workload shape
// drawn with the given weight. The per-device realization (utilization
// vector and reference service time) lives in DeviceModel.Classes, index
// aligned with Options.Classes.
type KernelClass struct {
	Name   string
	Weight float64
}

// DeviceClass is a kernel class as it runs on one device model: the
// utilization vector the power model consumes and the class's service time
// at the device's reference clocks.
type DeviceClass struct {
	Util       core.Utilization
	RefSeconds float64
}

// DeviceModel is one device type in the fleet: the hardware description, a
// model fitted on it, and the per-class realizations (index-aligned with
// Options.Classes). GPU g uses Fleet[g % len(Fleet)].
type DeviceModel struct {
	Device  *hw.Device
	Model   *core.Model
	Classes []DeviceClass
}

// Policy selects how GPUs pick operating points.
type Policy int

const (
	// Static runs every job at the device's reference clocks — the
	// no-DVFS baseline.
	Static Policy = iota
	// ModelDVFS picks, per (device model, kernel class), the governor-policy
	// optimum over the predicted ladder, bounded by Options.MaxStretch;
	// decisions come from the DecisionCache, keyed by surface identity.
	ModelDVFS
	// Oracle picks, per job, the minimum-energy ladder point that still
	// meets the job's deadline given the queue state at dispatch — a
	// greedy per-job bound on what deadline-aware DVFS can save. It may
	// stretch jobs to their full slack, so it saves more energy than
	// ModelDVFS but can queue-delay (and miss) more deadlines.
	Oracle
)

func (p Policy) String() string {
	switch p {
	case Static:
		return "static"
	case ModelDVFS:
		return "model-dvfs"
	case Oracle:
		return "oracle"
	default:
		// Exhaustive default: an out-of-range value still prints something
		// diagnosable rather than an empty string.
		return fmt.Sprintf("unknown(%d)", int(p))
	}
}

// Options configures one fleet simulation.
type Options struct {
	// GPUs is the fleet size; GPU g is a Fleet[g % len(Fleet)] device.
	GPUs int
	// HorizonSeconds is the arrival window. Jobs stop arriving at the
	// horizon; queued work drains to completion (the run ends when the last
	// completion dispatches).
	HorizonSeconds float64
	// Seed is the fleet seed; GPU g draws from substream (Seed, g).
	Seed uint64

	Fleet    []DeviceModel
	Classes  []KernelClass
	Workload Workload

	// Policy selects the operating-point discipline; Governor is the
	// objective ModelDVFS optimizes (MinEnergy, MinEDP, MaxPerfUnderCap).
	Policy   Policy
	Governor governor.Policy

	// PowerCapW caps per-GPU predicted power for ModelDVFS and Oracle
	// decisions; ≤ 0 means each device's TDP.
	PowerCapW float64
	// MaxStretch bounds ModelDVFS slowdown: ladder points predicted to run
	// more than MaxStretch× the reference time are rejected. ≤ 0 means
	// unbounded. Set it at or below the workload's SlackMin or the policy
	// plans to miss deadlines even on idle GPUs.
	MaxStretch float64
}

// validate checks the options.
func (o *Options) validate() error {
	if o.GPUs < 1 {
		return fmt.Errorf("cluster: fleet size %d must be >= 1", o.GPUs)
	}
	if o.HorizonSeconds <= 0 {
		return fmt.Errorf("cluster: horizon %g s must be positive", o.HorizonSeconds)
	}
	if len(o.Fleet) == 0 {
		return fmt.Errorf("cluster: empty fleet")
	}
	if len(o.Classes) == 0 {
		return fmt.Errorf("cluster: no kernel classes")
	}
	for i, c := range o.Classes {
		if c.Weight <= 0 {
			return fmt.Errorf("cluster: class %q (index %d) weight %g must be positive", c.Name, i, c.Weight)
		}
	}
	for i := range o.Fleet {
		dm := &o.Fleet[i]
		if dm.Device == nil || dm.Model == nil {
			return fmt.Errorf("cluster: fleet entry %d missing device or model", i)
		}
		if dm.Model.DeviceName != dm.Device.Name {
			return fmt.Errorf("cluster: fleet entry %d pairs a model fitted on %q with device %q",
				i, dm.Model.DeviceName, dm.Device.Name)
		}
		if len(dm.Classes) != len(o.Classes) {
			return fmt.Errorf("cluster: fleet entry %d (%s) realizes %d classes, want %d",
				i, dm.Device.Name, len(dm.Classes), len(o.Classes))
		}
		for j, dc := range dm.Classes {
			if dc.RefSeconds <= 0 {
				return fmt.Errorf("cluster: fleet entry %d (%s) class %q reference time %g s must be positive",
					i, dm.Device.Name, o.Classes[j].Name, dc.RefSeconds)
			}
		}
	}
	switch o.Policy {
	case Static, ModelDVFS, Oracle:
	default:
		return fmt.Errorf("cluster: unknown policy %v", o.Policy)
	}
	return o.Workload.validate()
}

// Metrics are the fleet-level outcomes of one run. Every field is a pure
// function of (Options, Seed): the accumulators are folded in GPU index
// order, so serial and parallel runs produce bitwise-identical Metrics.
type Metrics struct {
	GPUs   int
	Events int64 // dispatched simulation events (arrivals + completions)

	Jobs     int64
	Missed   int64
	MissRate float64

	EnergyJ   float64
	AvgPowerW float64 // fleet energy over summed per-GPU simulated spans

	BusySeconds float64 // summed service time across the fleet
	GPUSeconds  float64 // summed per-GPU simulated spans (≥ GPUs × horizon)
	Utilization float64 // BusySeconds / GPUSeconds

	P50Seconds float64 // sojourn-time quantiles (arrival → completion)
	P99Seconds float64

	JobsPerSecond float64 // completed jobs over the arrival horizon
	SimEndSeconds float64 // last completion across the fleet

	// TraceHash digests every dispatched event (kind, bitwise time, class)
	// per GPU, chained in GPU index order — the equality witness the
	// determinism tests compare.
	TraceHash uint64
}

// classRuntime is one kernel class resolved onto one device model: the
// memoized surface, the reference service time, and — for Static and
// ModelDVFS, where the operating point is fixed per class — the dispatched
// power draw and service length.
type classRuntime struct {
	surf       *core.Surface
	refSeconds float64
	powerW     float64
	serviceSec float64
}

// deviceRuntime is one fleet device model resolved for the run.
type deviceRuntime struct {
	dev        *hw.Device
	capW       float64
	idlePowerW float64
	classes    []classRuntime
}

// buildRuntimes resolves surfaces, governor decisions and idle power for
// every (device model, kernel class) pair — all model evaluation the run
// needs, hoisted out of the event loop. Decisions ride the process-wide
// DecisionCache, so a second run (another policy knob, another seed) skips
// the ladder scans entirely.
func buildRuntimes(ctx context.Context, o *Options) ([]deviceRuntime, error) {
	rts := make([]deviceRuntime, len(o.Fleet))
	for i := range o.Fleet {
		dm := &o.Fleet[i]
		rt := &rts[i]
		rt.dev = dm.Device
		rt.capW = o.PowerCapW
		if rt.capW <= 0 {
			rt.capW = dm.Device.TDP
		}
		ref := dm.Model.Ref

		// Idle draw: the model at zero utilization — at reference clocks for
		// Static (no DVFS anywhere), at the predicted-cheapest ladder point
		// for the DVFS policies (an idle GPU parks at its floor).
		idleSurf, err := core.Surfaces.Get(ctx, dm.Model, dm.Device, ref, core.Utilization{})
		if err != nil {
			return nil, fmt.Errorf("cluster: %s idle surface: %w", dm.Device.Name, err)
		}
		if o.Policy == Static {
			ri, ok := idleSurf.Point(ref)
			if !ok {
				return nil, fmt.Errorf("cluster: %s reference %.0f/%.0f MHz is not a ladder point",
					dm.Device.Name, ref.CoreMHz, ref.MemMHz)
			}
			rt.idlePowerW = idleSurf.PowerW[ri]
		} else {
			min := -1
			for k := 0; k < idleSurf.Len(); k++ {
				if min < 0 || idleSurf.PowerW[k] < idleSurf.PowerW[min] {
					min = k
				}
			}
			rt.idlePowerW = idleSurf.PowerW[min]
		}

		rt.classes = make([]classRuntime, len(dm.Classes))
		for j := range dm.Classes {
			dc := &dm.Classes[j]
			cr := &rt.classes[j]
			cr.refSeconds = dc.RefSeconds
			surf, err := core.Surfaces.Get(ctx, dm.Model, dm.Device, ref, dc.Util)
			if err != nil {
				return nil, fmt.Errorf("cluster: %s class %q surface: %w", dm.Device.Name, o.Classes[j].Name, err)
			}
			cr.surf = surf
			switch o.Policy {
			case Static:
				ri, ok := surf.Point(ref)
				if !ok {
					return nil, fmt.Errorf("cluster: %s reference %.0f/%.0f MHz is not a ladder point",
						dm.Device.Name, ref.CoreMHz, ref.MemMHz)
				}
				cr.powerW = surf.PowerW[ri]
				cr.serviceSec = dc.RefSeconds * surf.RelTime[ri]
			case ModelDVFS:
				d, err := Decisions.Get(surf, o.Governor, rt.capW, o.MaxStretch)
				if err != nil {
					// No point satisfies both cap and stretch: run the
					// fastest cap-feasible point instead of refusing to
					// serve the class.
					d, err = Decisions.Get(surf, governor.MaxPerfUnderCap, rt.capW, 0)
					if err != nil {
						return nil, fmt.Errorf("cluster: %s class %q: %w", dm.Device.Name, o.Classes[j].Name, err)
					}
				}
				cr.powerW = d.PowerW
				cr.serviceSec = dc.RefSeconds * d.RelTime
			case Oracle:
				// Per-job decisions happen at dispatch; require a
				// cap-feasible point now so the event loop cannot fail.
				if _, err := Decisions.Get(surf, governor.MaxPerfUnderCap, rt.capW, 0); err != nil {
					return nil, fmt.Errorf("cluster: %s class %q: %w", dm.Device.Name, o.Classes[j].Name, err)
				}
			}
		}
	}
	return rts, nil
}

// oracleDecide scans a class surface for the cheapest (energy-wise,
// power × relative time) cap-feasible ladder point that completes a job
// dispatched now before its deadline; when no point can, it falls back to
// the fastest cap-feasible point. Strict `<` comparisons keep ties on the
// lowest ladder index, so the scan is deterministic. buildRuntimes
// guarantees at least one cap-feasible point exists.
func oracleDecide(s *core.Surface, refSeconds, now, deadline, capW float64) int {
	best, fastest := -1, -1
	bestE, fastRT := 0.0, 0.0
	for i := 0; i < s.Len(); i++ {
		p := s.PowerW[i]
		if p > capW {
			continue
		}
		rt := s.RelTime[i]
		if fastest < 0 || rt < fastRT {
			fastest, fastRT = i, rt
		}
		if now+refSeconds*rt <= deadline {
			if e := p * rt; best < 0 || e < bestE {
				best, bestE = i, e
			}
		}
	}
	if best >= 0 {
		return best
	}
	return fastest
}

// engine is one shard's event loop: a heap, a pool, and a contiguous range
// of the fleet's GPUs. Engines persist across runs inside a Simulator so
// their buffers amortize to zero steady-state allocations.
type engine struct {
	opts *Options
	cum  []float64 // class cumulative weights (shared, read-only)
	gpus []gpuState
	heap eventHeap
	pool eventPool
}

// run drains the shard: seeds first arrivals, dispatches to quiescence,
// then charges idle energy for each GPU's non-busy span. Cancellation is
// checked every 64 Ki events — cheap enough to be invisible, frequent
// enough that a fleet-year simulation dies promptly.
func (en *engine) run(ctx context.Context) error {
	horizon := en.opts.HorizonSeconds
	// Recycle anything a canceled previous run left queued.
	for {
		e := en.heap.pop()
		if e == nil {
			break
		}
		en.pool.put(e)
	}
	//gpower:allocs warm-up only: the heap is pre-sized to the shard's event high-water mark on the first run, then reruns reuse it
	en.heap.grow(2*len(en.gpus) + 1)
	for i := range en.gpus {
		g := &en.gpus[i]
		g.idx = int32(i)
		if t := en.opts.Workload.nextArrival(&g.rng, 0); t < horizon {
			e := en.pool.get()
			e.at, e.gpu, e.kind = t, g.idx, evArrival
			en.heap.push(e)
		}
	}
	var dispatched int64
	for {
		e := en.heap.pop()
		if e == nil {
			break
		}
		if dispatched++; dispatched&0xFFFF == 0 {
			if err := backend.CheckContext(ctx, "cluster: event loop"); err != nil {
				return err
			}
		}
		g := &en.gpus[e.gpu]
		if e.kind == evArrival {
			en.onArrival(g, e)
		} else {
			en.onCompletion(g, e)
		}
	}
	for i := range en.gpus {
		g := &en.gpus[i]
		end := horizon
		if g.m.endAt > end {
			end = g.m.endAt
		}
		if idle := end - g.m.busySec; idle > 0 {
			g.m.energyJ += g.rt.idlePowerW * idle
		}
		g.m.endAt = end
	}
	return nil
}

// onArrival synthesizes the arriving job from the GPU's stream (class, then
// deadline slack — the draw order is part of the reproducible contract),
// queues or starts it, and reschedules the GPU's next arrival on the same
// event record.
func (en *engine) onArrival(g *gpuState, e *event) {
	g.m.events++
	h := fnvMix(g.m.traceHash, uint64(evArrival))
	g.m.traceHash = fnvMix(h, math.Float64bits(e.at))

	cls := drawClass(&g.rng, en.cum)
	slack := g.rng.uniform(en.opts.Workload.SlackMin, en.opts.Workload.SlackMax)
	j := job{
		class:    cls,
		arrival:  e.at,
		deadline: e.at + slack*g.rt.classes[cls].refSeconds,
	}
	if g.busy {
		g.queue.push(j)
	} else {
		en.start(g, j, e.at)
	}

	if t := en.opts.Workload.nextArrival(&g.rng, e.at); t < en.opts.HorizonSeconds {
		e.at = t
		en.heap.push(e)
	} else {
		en.pool.put(e)
	}
}

// start dispatches a job on an idle GPU: the policy fixes the operating
// point (and with it power draw and service length) and the completion
// event is scheduled. Static and ModelDVFS read the precomputed per-class
// decision; Oracle scans the surface per job against the deadline.
func (en *engine) start(g *gpuState, j job, now float64) {
	cr := &g.rt.classes[j.class]
	if en.opts.Policy == Oracle {
		i := oracleDecide(cr.surf, cr.refSeconds, now, j.deadline, g.rt.capW)
		g.curPowerW = cr.surf.PowerW[i]
		g.curService = cr.refSeconds * cr.surf.RelTime[i]
	} else {
		g.curPowerW = cr.powerW
		g.curService = cr.serviceSec
	}
	g.busy = true
	e := en.pool.get()
	e.at = now + g.curService
	e.gpu = g.idx
	e.kind = evCompletion
	e.class = j.class
	e.arrival = j.arrival
	e.deadline = j.deadline
	en.heap.push(e)
}

// onCompletion retires the job in service — energy, busy time, deadline
// verdict, sojourn latency — and starts the next queued job at the same
// timestamp, if any.
func (en *engine) onCompletion(g *gpuState, e *event) {
	g.m.events++
	h := fnvMix(g.m.traceHash, uint64(evCompletion))
	h = fnvMix(h, math.Float64bits(e.at))
	g.m.traceHash = fnvMix(h, uint64(e.class))

	finish := e.at
	g.m.jobs++
	if finish > e.deadline {
		g.m.missed++
	}
	g.m.energyJ += g.curPowerW * g.curService
	g.m.busySec += g.curService
	g.m.hist.add(finish - e.arrival)
	if finish > g.m.endAt {
		g.m.endAt = finish
	}
	en.pool.put(e)
	if g.queue.n > 0 {
		en.start(g, g.queue.pop(), finish)
	} else {
		g.busy = false
	}
}

// Simulator is a reusable fleet simulation: runtimes resolved once, GPU and
// engine buffers retained across runs. Re-running (the benchmark loop, the
// events/sec measurement) performs no steady-state allocation beyond the
// returned Metrics — use RunInto to eliminate that one too.
type Simulator struct {
	opts    Options
	rts     []deviceRuntime
	cum     []float64
	gpus    []gpuState
	engines []engine
	merged  latHist
}

// NewSimulator validates the options and resolves every model evaluation
// the run will need. The Options value is copied; the Fleet/Classes slices
// are referenced and must not be mutated while the simulator lives.
func NewSimulator(ctx context.Context, opts *Options) (*Simulator, error) {
	if opts == nil {
		return nil, fmt.Errorf("cluster: nil options")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	rts, err := buildRuntimes(ctx, opts)
	if err != nil {
		return nil, err
	}
	cum := make([]float64, len(opts.Classes))
	sum := 0.0
	for i, c := range opts.Classes {
		sum += c.Weight
		cum[i] = sum
	}
	return &Simulator{
		opts: *opts,
		rts:  rts,
		cum:  cum,
		gpus: make([]gpuState, opts.GPUs),
	}, nil
}

// Run simulates the fleet and returns its metrics.
func (s *Simulator) Run(ctx context.Context) (*Metrics, error) {
	m := &Metrics{}
	if err := s.RunInto(ctx, m); err != nil {
		return nil, err
	}
	return m, nil
}

// RunInto is Run writing into a caller-owned Metrics — the allocation-free
// steady state the zero-alloc test pins. GPUs are sharded contiguously
// across the parallel pool; each shard owns its GPU range, its heap and its
// pool, and the fold below consumes the per-GPU accumulators strictly in
// GPU index order, so worker count and scheduling cannot perturb a bit.
//
//gpower:noalloc the zero-alloc test pins the single-shard steady state; multi-shard fan-out and warm-up growth are hatched below
func (s *Simulator) RunInto(ctx context.Context, m *Metrics) error {
	o := &s.opts
	for i := range s.gpus {
		s.gpus[i].reset(&s.rts[i%len(s.rts)], o.Seed, i)
	}
	shards := parallel.Workers()
	if shards > len(s.gpus) {
		shards = len(s.gpus)
	}
	for len(s.engines) < shards {
		//gpower:allocs warm-up only: the engine shard slice grows to the worker count once, then reruns reuse it
		s.engines = append(s.engines, engine{})
	}
	if shards == 1 {
		// Single-shard (sequential-mode) path, inlined so the steady state
		// allocates nothing — the fan-out closure below escapes and would
		// cost one heap allocation per run.
		en := &s.engines[0]
		en.opts, en.cum = o, s.cum
		en.gpus = s.gpus
		if err := en.run(ctx); err != nil {
			return err
		}
	} else {
		// Contiguous ranges: shard k owns GPUs [k·size, min((k+1)·size, GPUs)).
		size := (len(s.gpus) + shards - 1) / shards
		//gpower:allocs multi-shard fan-out: the shard closure and worker pool cost a handful of allocations per run; the single-shard path above is the allocation-free one the test pins
		err := parallel.ForEach(shards, func(k int) error {
			lo := k * size
			hi := lo + size
			if hi > len(s.gpus) {
				hi = len(s.gpus)
			}
			en := &s.engines[k]
			en.opts, en.cum = o, s.cum
			en.gpus = s.gpus[lo:hi]
			return en.run(ctx)
		})
		if err != nil {
			return err
		}
	}

	// Deterministic merge: one pass over the fleet in GPU index order. The
	// floating-point folds and the trace-hash chain are associated exactly
	// as the serial engine associates them.
	*m = Metrics{GPUs: len(s.gpus), TraceHash: fnvOffset64}
	s.merged = latHist{}
	for i := range s.gpus {
		gm := &s.gpus[i].m
		m.Events += gm.events
		m.Jobs += gm.jobs
		m.Missed += gm.missed
		m.EnergyJ += gm.energyJ
		m.BusySeconds += gm.busySec
		m.GPUSeconds += gm.endAt
		if gm.endAt > m.SimEndSeconds {
			m.SimEndSeconds = gm.endAt
		}
		s.merged.merge(&gm.hist)
		m.TraceHash = fnvMix(m.TraceHash, gm.traceHash)
	}
	if m.Jobs > 0 {
		m.MissRate = float64(m.Missed) / float64(m.Jobs)
	}
	if m.GPUSeconds > 0 {
		m.AvgPowerW = m.EnergyJ / m.GPUSeconds
		m.Utilization = m.BusySeconds / m.GPUSeconds
	}
	m.P50Seconds = s.merged.quantile(0.50)
	m.P99Seconds = s.merged.quantile(0.99)
	m.JobsPerSecond = float64(m.Jobs) / o.HorizonSeconds
	return nil
}

// Run simulates a fleet in one call — NewSimulator plus one Run.
func Run(ctx context.Context, opts *Options) (*Metrics, error) {
	sim, err := NewSimulator(ctx, opts)
	if err != nil {
		return nil, err
	}
	return sim.Run(ctx)
}
