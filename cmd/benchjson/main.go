// Command benchjson consolidates performance numbers into a single
// machine-readable artifact:
//
//	go test -run NONE -bench . -benchmem ./ > bench_raw.txt
//	benchjson -bench bench_raw.txt -o BENCH_results.json
//
// It parses the standard `go test -bench -benchmem` output (ns/op, B/op,
// allocs/op per benchmark) and runs the speedup, fleet-fit,
// serving-throughput and cluster-simulation experiments (cold vs warm
// prediction surfaces, fleet fitting throughput, gpowerd /v1/predict over
// loopback HTTP, and the fleet discrete-event DVFS simulator) in-process,
// then writes everything as one JSON document stamped with the host and
// commit that produced it. `make bench-json` is the supported entry point;
// CI uploads the resulting BENCH_results.json as a build artifact and gates
// on -max-fit-ms (a ceiling on the serial GTX Titan X fit row of the -bench
// output), -min-serve-throughput and -min-cluster-events (the single-core
// event throughput of the cluster engine, recorded as the cluster_sim row).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"

	"gpupower/internal/alloccheck"
	"gpupower/internal/experiments"
)

// BenchEntry is one parsed `go test -bench` result line.
type BenchEntry struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// SpeedupEntry is one measured baseline-vs-optimized comparison.
type SpeedupEntry struct {
	Name      string  `json:"name"`
	Baseline  string  `json:"baseline"`
	Optimized string  `json:"optimized"`
	BaseNsOp  float64 `json:"base_ns_per_op"`
	OptNsOp   float64 `json:"opt_ns_per_op"`
	Factor    float64 `json:"speedup_factor"`
}

// FleetFitEntry records the fleet-scale fitting throughput measurement.
type FleetFitEntry struct {
	Members         []string `json:"members"`
	Workers         int      `json:"workers"`
	WallNs          float64  `json:"wall_ns"`
	ModelsPerMinute float64  `json:"models_per_minute"`
	Converged       int      `json:"converged"`
}

// ServePredictEntry records the gpowerd end-to-end serving throughput
// measurement (real loopback HTTP server, batch /v1/predict, bitwise
// pre-flight verification).
type ServePredictEntry struct {
	Device            string  `json:"device"`
	Conns             int     `json:"conns"`
	ItemsPerRequest   int     `json:"items_per_request"`
	ConfigsPerItem    int     `json:"configs_per_item"`
	DurationNs        float64 `json:"duration_ns"`
	Requests          int64   `json:"requests"`
	Predictions       int64   `json:"predictions"`
	PredictionsPerSec float64 `json:"predictions_per_sec"`
	RequestsPerSec    float64 `json:"requests_per_sec"`
	Verified          bool    `json:"verified_bitwise"`
}

// ClusterPolicyEntry is one DVFS policy's fleet outcome on the common
// seeded traffic trace.
type ClusterPolicyEntry struct {
	Policy         string  `json:"policy"`
	Jobs           int64   `json:"jobs"`
	MissPct        float64 `json:"deadline_miss_pct"`
	EnergyJ        float64 `json:"energy_j"`
	AvgPowerW      float64 `json:"avg_power_w"`
	P50Ms          float64 `json:"p50_ms"`
	P99Ms          float64 `json:"p99_ms"`
	EnergySavedPct float64 `json:"energy_saved_pct"`
}

// ClusterSimEntry records the fleet discrete-event simulation: per-policy
// outcomes plus the engine's raw single-core event throughput (the number
// -min-cluster-events gates).
type ClusterSimEntry struct {
	GPUs           int                  `json:"gpus"`
	HorizonSeconds float64              `json:"horizon_seconds"`
	Devices        []string             `json:"devices"`
	Classes        []string             `json:"classes"`
	Policies       []ClusterPolicyEntry `json:"policies"`
	EventsPerRun   int64                `json:"events_per_run"`
	EventsPerSec   float64              `json:"events_per_sec"`
}

// AlloccheckEntry records the static zero-allocation coverage: how many
// //gpower:noalloc roots the interprocedural proof covers at HEAD, how many
// prove clean, and how many //gpower:allocs escape hatches the proofs lean
// on (DESIGN.md §13).
type AlloccheckEntry struct {
	Roots           int     `json:"annotated_roots"`
	Proven          int     `json:"proven"`
	EscapeHatches   int     `json:"escape_hatches"`
	FunctionsWalked int     `json:"functions_walked"`
	WallNs          float64 `json:"wall_ns"`
}

// EnvEntry stamps the artifact with where and from what it was measured.
// Commit is the revision `go build` embeds ("+dirty" when the tree had
// uncommitted changes); `go run` embeds none, so it reads "unknown" there.
type EnvEntry struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

// Document is the BENCH_results.json schema.
type Document struct {
	Env          EnvEntry           `json:"env"`
	Seed         uint64             `json:"seed"`
	Benchmarks   []BenchEntry       `json:"benchmarks"`
	Speedups     []SpeedupEntry     `json:"speedups"`
	FleetFit     *FleetFitEntry     `json:"fleet_fit,omitempty"`
	ServePredict *ServePredictEntry `json:"serve_predict,omitempty"`
	ClusterSim   *ClusterSimEntry   `json:"cluster_sim,omitempty"`
	Alloccheck   *AlloccheckEntry   `json:"alloccheck,omitempty"`
}

// benchLine matches e.g.
//
//	BenchmarkPredict-8   1626286   729.7 ns/op   224 B/op   3 allocs/op
//
// The -N GOMAXPROCS suffix is stripped; B/op and allocs/op are optional
// (plain -bench output without -benchmem omits them).
var benchLine = regexp.MustCompile(
	`^(Benchmark[^\s]+?)(?:-\d+)?\s+(\d+)\s+([0-9.e+]+) ns/op(?:\s+([0-9.e+]+) B/op)?(?:\s+(\d+) allocs/op)?`)

// parseBench extracts benchmark entries from go test -bench output.
func parseBench(path string) ([]BenchEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []BenchEntry
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		e := BenchEntry{Name: m[1]}
		e.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
		e.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			e.BytesPerOp, _ = strconv.ParseFloat(m[4], 64)
		}
		if m[5] != "" {
			e.AllocsPerOp, _ = strconv.ParseFloat(m[5], 64)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

// environment reads the stamp for this process.
func environment() EnvEntry {
	env := EnvEntry{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     "unknown",
	}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return env
	}
	dirty := false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			env.Commit = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		env.Commit += "+dirty"
	}
	return env
}

// fitGateRow is the benchmark row -max-fit-ms bounds: one serial fit of the
// GTX Titan X, the catalog's largest system. The serial row keeps the gate
// independent of the runner's core count.
const fitGateRow = "BenchmarkEstimateSerial/GTX_Titan_X"

// checkFitCeiling fails unless entries hold fitGateRow at no more than
// maxMs milliseconds per fit.
func checkFitCeiling(entries []BenchEntry, maxMs float64) error {
	for _, e := range entries {
		if e.Name != fitGateRow {
			continue
		}
		if ms := e.NsPerOp / 1e6; ms > maxMs {
			return fmt.Errorf("%s takes %.1f ms per fit, above the %g ms ceiling", fitGateRow, ms, maxMs)
		}
		return nil
	}
	return fmt.Errorf("no %s row in the -bench output to check against the %g ms ceiling", fitGateRow, maxMs)
}

func main() {
	bench := flag.String("bench", "", "path to `go test -bench -benchmem` output to parse (optional)")
	seed := flag.Uint64("seed", experiments.DefaultSeed, "simulation seed for the speedup measurements")
	out := flag.String("o", "BENCH_results.json", "output path")
	maxFitMs := flag.Float64("max-fit-ms", 0,
		"fail (exit 1) if the "+fitGateRow+" row of -bench exceeds this many ms per fit, or is missing (0 disables the gate)")
	serveDuration := flag.Duration("serve-duration", 2*time.Second, "load-phase duration for the serving-throughput measurement (0 skips it)")
	serveConns := flag.Int("serve-conns", 4, "concurrent client connections for the serving-throughput measurement")
	minServe := flag.Float64("min-serve-throughput", 0,
		"fail (exit 1) if the serving throughput falls below this many predictions/sec (0 disables the gate)")
	clusterGPUs := flag.Int("cluster-gpus", 1000, "fleet size for the cluster simulation (0 skips it)")
	clusterHorizon := flag.Float64("cluster-horizon", 20, "simulated arrival horizon for the cluster simulation, seconds")
	minCluster := flag.Float64("min-cluster-events", 0,
		"fail (exit 1) if the single-core cluster engine falls below this many simulated events/sec (0 disables the gate)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	doc := Document{Env: environment(), Seed: *seed}
	if *bench != "" {
		entries, err := parseBench(*bench)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: parsing %s: %v\n", *bench, err)
			os.Exit(1)
		}
		doc.Benchmarks = entries
	}

	sp, err := experiments.RunSpeedup(ctx, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: speedup experiment: %v\n", err)
		os.Exit(1)
	}
	for _, row := range sp.Rows {
		doc.Speedups = append(doc.Speedups, SpeedupEntry{
			Name:      row.Name,
			Baseline:  row.BaseLabel,
			Optimized: row.OptLabel,
			BaseNsOp:  row.BaseNsOp,
			OptNsOp:   row.OptNsOp,
			Factor:    row.Factor,
		})
	}

	ff, err := experiments.RunFleetFit(ctx, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: fleet-fit experiment: %v\n", err)
		os.Exit(1)
	}
	doc.FleetFit = &FleetFitEntry{
		Members:         ff.Members,
		Workers:         ff.Workers,
		WallNs:          ff.WallNs,
		ModelsPerMinute: ff.ModelsPerMinute,
		Converged:       ff.Converged,
	}

	if *serveDuration > 0 {
		sl, err := experiments.RunServeLoad(ctx, *seed, *serveDuration, *serveConns)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: serve-load experiment: %v\n", err)
			os.Exit(1)
		}
		doc.ServePredict = &ServePredictEntry{
			Device:            sl.Device,
			Conns:             sl.Conns,
			ItemsPerRequest:   sl.ItemsPerRequest,
			ConfigsPerItem:    sl.ConfigsPerItem,
			DurationNs:        sl.DurationNs,
			Requests:          sl.Requests,
			Predictions:       sl.Predictions,
			PredictionsPerSec: sl.PredictionsPerSec,
			RequestsPerSec:    sl.RequestsPerSec,
			Verified:          sl.Verified,
		}
	}

	if *clusterGPUs > 0 {
		cl, err := experiments.RunCluster(ctx, *seed, *clusterGPUs, *clusterHorizon)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: cluster experiment: %v\n", err)
			os.Exit(1)
		}
		entry := &ClusterSimEntry{
			GPUs:           cl.GPUs,
			HorizonSeconds: cl.HorizonSeconds,
			Devices:        cl.Devices,
			Classes:        cl.Classes,
			EventsPerRun:   cl.Events,
			EventsPerSec:   cl.EventsPerSec,
		}
		for _, row := range cl.Rows {
			entry.Policies = append(entry.Policies, ClusterPolicyEntry{
				Policy:         row.Policy,
				Jobs:           row.Jobs,
				MissPct:        row.MissPct,
				EnergyJ:        row.EnergyJ,
				AvgPowerW:      row.AvgPowerW,
				P50Ms:          row.P50Ms,
				P99Ms:          row.P99Ms,
				EnergySavedPct: row.EnergySavedPct,
			})
		}
		doc.ClusterSim = entry
	}

	acStart := time.Now()
	acRes, _, err := alloccheck.CheckModule(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: alloccheck: %v\n", err)
		os.Exit(1)
	}
	doc.Alloccheck = &AlloccheckEntry{
		Roots:           acRes.RootCount,
		Proven:          acRes.ProvenCount,
		EscapeHatches:   acRes.HatchesUsed,
		FunctionsWalked: acRes.FunctionsWalked,
		WallNs:          float64(time.Since(acStart).Nanoseconds()),
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks, %d speedup rows, %.1f models/min fleet fit, seed %d)\n",
		*out, len(doc.Benchmarks), len(doc.Speedups), ff.ModelsPerMinute, *seed)
	if doc.ServePredict != nil {
		fmt.Printf("serve_predict: %.2fM predictions/s over %d connections\n",
			doc.ServePredict.PredictionsPerSec/1e6, doc.ServePredict.Conns)
	}
	if doc.ClusterSim != nil {
		fmt.Printf("cluster_sim: %.2fM events/s single-core, %d-GPU fleet\n",
			doc.ClusterSim.EventsPerSec/1e6, doc.ClusterSim.GPUs)
	}
	fmt.Printf("alloccheck: %d/%d hot-path roots proven, %d escape hatches, %d functions walked\n",
		doc.Alloccheck.Proven, doc.Alloccheck.Roots, doc.Alloccheck.EscapeHatches, doc.Alloccheck.FunctionsWalked)

	// The regression gates run after the artifact is written so a failing
	// run still leaves the numbers on disk for diagnosis. The alloccheck
	// gate has no knob: an unproven hot-path root is always a regression.
	if !acRes.Clean() {
		fmt.Fprintf(os.Stderr, "benchjson: alloccheck: %d of %d roots unproven, %d directive errors (run `go run ./cmd/alloccheck ./...` for the findings)\n",
			acRes.RootCount-acRes.ProvenCount, acRes.RootCount, len(acRes.DirectiveErrors))
		os.Exit(1)
	}
	if *maxFitMs > 0 {
		if err := checkFitCeiling(doc.Benchmarks, *maxFitMs); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
	}
	if *minServe > 0 {
		if doc.ServePredict == nil {
			fmt.Fprintf(os.Stderr, "benchjson: -min-serve-throughput set but the serve measurement was skipped\n")
			os.Exit(1)
		}
		if doc.ServePredict.PredictionsPerSec < *minServe {
			fmt.Fprintf(os.Stderr, "benchjson: serving throughput %.0f predictions/s below gate %.0f\n",
				doc.ServePredict.PredictionsPerSec, *minServe)
			os.Exit(1)
		}
	}
	if *minCluster > 0 {
		if doc.ClusterSim == nil {
			fmt.Fprintf(os.Stderr, "benchjson: -min-cluster-events set but the cluster simulation was skipped\n")
			os.Exit(1)
		}
		if doc.ClusterSim.EventsPerSec < *minCluster {
			fmt.Fprintf(os.Stderr, "benchjson: cluster engine %.0f events/s below gate %.0f\n",
				doc.ClusterSim.EventsPerSec, *minCluster)
			os.Exit(1)
		}
	}
}
