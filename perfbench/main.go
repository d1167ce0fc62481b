// Command perfbench is gpupower's benchmark. It runs one of three seeded
// workloads — fit, serve or cluster — in this process, times calls into
// the repository's layers from outside, checks every output, and prints
// its metrics with their units; the last line of standard output is one
// JSON object. README.md explains the workloads and metrics.
//
//	bash perfbench/run.sh --workload serve --seed 42 --seconds 20 --trace 0
//
// --trace 1 records a span around every layer call and reports per-layer
// metrics instead of the end-to-end ones; the spans go to --spans.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// metricDef is one reported metric, its unit and the workloads that
// measure it.
type metricDef struct {
	name, unit string
	in         workloadSet
}

// workloadSet is a set of workloads, one bit each.
type workloadSet uint8

const (
	inFit workloadSet = 1 << iota
	inServe
	inCluster
	inAll = inFit | inServe | inCluster
)

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; README.md gives each its per-workload
// meaning.
var endToEnd = []metricDef{
	{"setup_s", "s", inAll},
	{"peak_rss_mb", "MB", inAll},
	{"primary_ms", "ms", inAll},
	{"secondary_ms", "ms", inAll},
	{"throughput_per_s", "1/s", inAll},
	{"model_error_pct", "%", inAll},
}

// perLayer are the metrics of single layers, reported by traced runs. A
// traced run fails when a metric of its workload is missing, and reports 0
// for the layers it does not run.
var perLayer = []metricDef{
	{"profiler.dataset_ms", "ms", inFit},
	{"profiler.allocs_per_dataset", "count", inFit},
	{"core.estimate_iterations", "count", inFit},
	{"core.estimate_iter_ms", "ms", inFit},
	{"core.allocs_per_fit", "count", inFit},
	{"core.bytes_per_fit", "bytes", inFit},
	{"core.mape_pct.titan_xp", "%", inFit | inCluster},
	{"core.mape_pct.gtx_titan_x", "%", inAll},
	{"core.mape_pct.tesla_k40c", "%", inFit | inCluster},
	{"linalg.nnls_ms", "ms", inFit},
	{"fleet.parallel_efficiency", "ratio", inFit},
	{"runtime.gc_per_fleet_round", "count", inFit},
	{"serve.handler_predict_ms", "ms", inServe},
	{"serve.handler_govern_ms", "ms", inServe},
	{"serve.compute_predict_ms", "ms", inServe},
	{"serve.compute_govern_ms", "ms", inServe},
	{"serve.codec_predict_ms", "ms", inServe},
	{"serve.codec_govern_ms", "ms", inServe},
	{"http.transport_predict_ms", "ms", inServe},
	{"http.transport_govern_ms", "ms", inServe},
	{"core.surface_hit_us", "us", inServe},
	{"core.surface_miss_us", "us", inServe},
	{"core.surface_hit_ratio.predict", "ratio", inServe},
	{"core.surface_hit_ratio.govern", "ratio", inServe},
	{"governor.decide_us", "us", inServe},
	{"registry.snapshot_ns", "ns", inServe},
	{"serve.allocs_per_predict", "count", inServe},
	{"serve.allocs_per_govern", "count", inServe},
	{"serve.bytes_per_predict_response", "bytes", inServe},
	{"runtime.gc_per_1k_requests", "count", inServe},
	{"serve.predict_p99_ms", "ms", inServe},
	{"serve.govern_p99_ms", "ms", inServe},
	{"cluster.new_simulator_ms", "ms", inCluster},
	{"cluster.decisions_hit_ratio", "ratio", inCluster},
	{"cluster.events_per_run", "count", inCluster},
	{"cluster.ns_per_event", "ns", inCluster},
	{"cluster.allocs_per_run", "count", inCluster},
	{"cluster.shard_speedup", "ratio", inCluster},
	{"cluster.sojourn_p99_ms", "sim_ms", inCluster},
	{"cluster.energy_saved_pct", "%", inCluster},
	{"cluster.deadline_miss_pct", "%", inCluster},
	{"env.steal_pct", "%", inAll},
	{"env.probe_us", "us", inAll},
	{"env.gomaxprocs", "count", inAll},
	{"trace.overhead_pct", "%", inAll},
}

// setupRepeats is how many times every workload prepares itself; setup_s
// is the median, so one slow preparation does not move it.
const setupRepeats = 5

// bench is one run's state: its inputs, the tracer, the counts of checked
// operations and the metrics measured so far.
type bench struct {
	seed uint64
	dur  time.Duration
	tr   *tracer
	out  io.Writer

	attempted, failed int64
	e2e, layer        map[string]float64

	probes    []float64 // env probe times, µs
	lastProbe time.Time
	cpu0      cpuTimes
	cpuOK     bool
	steal     float64
}

func (b *bench) traced() bool { return b.tr.on }

// check counts one attempted operation and whether its output was right;
// the first few failures are described on standard error.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		if b.failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
		}
	}
}

// report prints one figure of the workload by name, with its unit and a
// note on the samples behind it.
func (b *bench) report(name string, v float64, unit, note string) {
	fmt.Fprintf(b.out, "%-28s %14.6g %-6s %s\n", name, v, unit, note)
}

// setup runs prepare setupRepeats times, records the median wall time as
// setup_s, and returns the last preparation's state for the timed phase.
// prepare receives its "setup" span, to parent the spans it records.
func setup[T any](b *bench, prepare func(parent int, op int64) (T, error)) (T, error) {
	var st T
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		sp := b.tr.begin("setup", -1, int64(i))
		start := time.Now()
		var err error
		if st, err = prepare(sp, int64(i)); err != nil {
			return st, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		b.tr.end(sp)
	}
	b.e2e["setup_s"] = median(times)
	b.report("setup_s", b.e2e["setup_s"], "s", fmt.Sprintf("median of %d set-ups", len(times)))
	return st, nil
}

// startPhase begins the timed phase after a collection, so garbage from
// setup and verification is not charged to it, and returns its deadline.
func (b *bench) startPhase() time.Time {
	runtime.GC()
	b.cpu0, b.cpuOK = readCPUTimes()
	b.lastProbe = time.Now()
	b.probes = append(b.probes, float64(probe())/1e3)
	return time.Now().Add(b.dur)
}

// more reports whether the timed phase goes on to operation op. It always
// runs two, so a traced run has both a spanned and a bare one.
func more(op int64, deadline time.Time) bool {
	return op < 2 || time.Now().Before(deadline)
}

// tick runs the host-speed probe about once a second of the timed phase.
func (b *bench) tick() {
	if time.Since(b.lastProbe) >= time.Second {
		b.probes = append(b.probes, float64(probe())/1e3)
		b.lastProbe = time.Now()
	}
}

// endPhase closes the timed phase and records the host's steal over it.
func (b *bench) endPhase() {
	b.probes = append(b.probes, float64(probe())/1e3)
	if c, ok := readCPUTimes(); ok && b.cpuOK {
		b.steal = stealPct(b.cpu0, c)
	}
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workload is one of the benchmark's workloads: the function that runs it
// and its bit in the metric tables.
type workload struct {
	run func(context.Context, *bench) error
	bit workloadSet
}

var workloads = map[string]workload{
	"fit":     {runFit, inFit},
	"serve":   {runServe, inServe},
	"cluster": {runCluster, inCluster},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and prints its report and result line.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: fit, serve or cluster")
	seed := fs.Uint64("seed", 42, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 10, "length of the timed phase, in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	spansPath := fs.String("spans", "", "file the spans of a traced run go to (default .bench_build/spans/<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*workload]
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q (want fit, serve or cluster)", *workload)
	case *seconds < 1:
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *spansPath == "" {
		*spansPath = fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", *workload, *seed)
	}

	b := &bench{
		seed:  *seed,
		dur:   time.Duration(*seconds) * time.Second,
		tr:    newTracer(*trace == 1),
		out:   stdout,
		e2e:   make(map[string]float64),
		layer: make(map[string]float64),
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	if err := wl.run(context.Background(), b); err != nil {
		return err
	}
	b.e2e["peak_rss_mb"] = peakRSSMB()
	b.report("peak_rss_mb", b.e2e["peak_rss_mb"], "MB", "VmHWM")
	probeUS := median(b.probes)
	b.layer["env.steal_pct"] = b.steal
	b.layer["env.probe_us"] = probeUS
	b.layer["env.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	fmt.Fprintln(stdout, envStamp(b.seed, b.steal, probeUS))

	if err := checkMeasured(endToEnd, b.e2e, wl.bit, true); err != nil {
		return err
	}
	if err := checkMeasured(perLayer, b.layer, wl.bit, b.traced()); err != nil {
		return err
	}
	defs, vals := endToEnd, b.e2e
	if b.traced() {
		defs, vals = perLayer, b.layer
		if err := b.tr.write(*spansPath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(b.tr.spans), *spansPath)
	}
	res := result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// checkMeasured matches the metrics a workload measured against a metric
// table: each one must be in the table and belong to the workload, and
// when complete is set, every metric of the workload must be there.
func checkMeasured(defs []metricDef, vals map[string]float64, w workloadSet, complete bool) error {
	owned := make(map[string]bool, len(defs))
	for _, d := range defs {
		owned[d.name] = d.in&w != 0
		if _, ok := vals[d.name]; complete && owned[d.name] && !ok {
			return fmt.Errorf("workload did not measure %s", d.name)
		}
	}
	for name := range vals {
		if !owned[name] {
			return fmt.Errorf("workload measured %s, which is not one of its metrics", name)
		}
	}
	return nil
}
