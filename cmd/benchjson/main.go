// Command benchjson consolidates the repository's benchmark numbers into a
// single machine-readable artifact:
//
//	go test -run NONE -bench . -benchmem ./ ./internal/cluster/ > bench_raw.txt
//	benchjson -bench bench_raw.txt -o BENCH_results.json
//
// It parses the standard `go test -bench -benchmem` output (ns/op, B/op,
// allocs/op and every b.ReportMetric unit of each row), adds the alloccheck
// proof of the //gpower:noalloc roots, and writes one JSON document stamped
// with the host and commit that produced it. It times nothing itself.
// `make bench-json` is the supported entry point; CI uploads the resulting
// BENCH_results.json as a build artifact. After writing it, benchjson exits
// 1 if a root is unproven or a row of the ceilings table is missing or
// slower than its ceiling.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"gpupower/internal/alloccheck"
)

// BenchEntry is one parsed `go test -bench` result line.
type BenchEntry struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds the line's other units, keyed by unit: the values the
	// benchmark reported with b.ReportMetric (events/sec, models/min, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
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
	Env        EnvEntry        `json:"env"`
	Benchmarks []BenchEntry    `json:"benchmarks"`
	Alloccheck AlloccheckEntry `json:"alloccheck"`
}

// procSuffix is the -GOMAXPROCS suffix `go test` appends to row names.
var procSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchLine parses one result line, e.g.
//
//	BenchmarkClusterEvents-2   10   114e6 ns/op   2.8e6 events/sec   0 B/op   0 allocs/op
//
// After the name and the iteration count come value–unit pairs in any
// order and number. ok is false for every other line of the output.
func parseBenchLine(line string) (e BenchEntry, ok bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
		return BenchEntry{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return BenchEntry{}, false
	}
	e = BenchEntry{Name: procSuffix.ReplaceAllString(f[0], ""), Iterations: iters}
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return BenchEntry{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			e.NsPerOp = v
		case "B/op":
			e.BytesPerOp = v
		case "allocs/op":
			e.AllocsPerOp = v
		default:
			if e.Metrics == nil {
				e.Metrics = map[string]float64{}
			}
			e.Metrics[unit] = v
		}
	}
	return e, true
}

// parseBench extracts the benchmark entries from go test -bench output.
func parseBench(r io.Reader) ([]BenchEntry, error) {
	var out []BenchEntry
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if e, ok := parseBenchLine(sc.Text()); ok {
			out = append(out, e)
		}
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

// ceilings bounds the gated rows in ns/op. Each is a gross-regression bar
// set well above the row on a 2-vCPU host, so a slow shared runner and a
// one-iteration smoke run pass while an order-of-magnitude regression
// fails. None depends on the runner's core count.
var ceilings = []struct {
	row   string
	maxNs float64
}{
	// One fit of the catalog's largest system (~8 ms measured).
	{"BenchmarkEstimate/GTX_Titan_X", 100e6},
	// 16,384 full-ladder predictions per op at 200k predictions/s.
	{"BenchmarkServePredict", 82e6},
	// About 324k simulated events per op at 250k events/s, single-core.
	{"BenchmarkClusterEvents", 1296e6},
}

// checkCeilings fails for every ceilings row that entries lack or hold
// above its ceiling.
func checkCeilings(entries []BenchEntry) error {
	var errs []error
	for _, c := range ceilings {
		found := false
		for _, e := range entries {
			if e.Name != c.row {
				continue
			}
			found = true
			if e.NsPerOp > c.maxNs {
				errs = append(errs, fmt.Errorf("%s takes %.1f ms per op, above its %g ms ceiling",
					c.row, e.NsPerOp/1e6, c.maxNs/1e6))
			}
			break
		}
		if !found {
			errs = append(errs, fmt.Errorf("no %s row in the -bench output to check against its %g ms ceiling",
				c.row, c.maxNs/1e6))
		}
	}
	return errors.Join(errs...)
}

func main() {
	bench := flag.String("bench", "", "path to the output of go test -bench -benchmem to parse (required)")
	out := flag.String("o", "BENCH_results.json", "output path")
	flag.Parse()
	if *bench == "" || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*bench)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	entries, err := parseBench(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: parsing %s: %v\n", *bench, err)
		os.Exit(1)
	}
	doc := Document{Env: environment(), Benchmarks: entries}

	acStart := time.Now()
	acRes, _, err := alloccheck.CheckModule(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: alloccheck: %v\n", err)
		os.Exit(1)
	}
	doc.Alloccheck = AlloccheckEntry{
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
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(doc.Benchmarks))
	fmt.Printf("alloccheck: %d/%d hot-path roots proven, %d escape hatches, %d functions walked\n",
		doc.Alloccheck.Proven, doc.Alloccheck.Roots, doc.Alloccheck.EscapeHatches, doc.Alloccheck.FunctionsWalked)

	// The gates run after the artifact is written so a failing run still
	// leaves the numbers on disk for diagnosis.
	failed := false
	if !acRes.Clean() {
		fmt.Fprintf(os.Stderr, "benchjson: alloccheck: %d of %d roots unproven, %d directive errors (run `go run ./cmd/alloccheck ./...` for the findings)\n",
			acRes.RootCount-acRes.ProvenCount, acRes.RootCount, len(acRes.DirectiveErrors))
		failed = true
	}
	if err := checkCeilings(doc.Benchmarks); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}
