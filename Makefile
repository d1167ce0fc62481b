# gpupower build / verify targets.
#
# Tiers:
#   make verify  — tier-1 gate (build + full test suite), what every PR must keep green
#   make race    — concurrency gate: go vet + the full suite under the race
#                  detector. The estimation engine fans out across a worker
#                  pool (internal/parallel); this tier is what keeps the
#                  disjoint-write invariants honest and must gate every PR
#                  that touches a parallel loop.
#   make cover   — full suite with coverage; prints the total and writes
#                  cover.out (the baseline figure lives in EXPERIMENTS.md)
#   make lint    — invariant gate: runs the in-tree gpowerlint analyzers
#                  (internal/lint; see DESIGN.md §9) over ./... and fails on
#                  any diagnostic. Mechanically enforces determinism
#                  (maporder, floateq), cancellation (ctxflow), error
#                  taxonomy (senterr), pooled-spawn (gonosync),
#                  disjoint-write (disjointwrite, with method-mutation
#                  summaries), unit-provenance (unitflow, with cross-package
#                  facts), snapshot-coherence (atomicsnap), serving-boundary
#                  (httpbound), wire-unit (dtounits) and live-suppression
#                  (unusedignore) invariants; must stay green on every PR.
#                  Incremental and serial: per-package results are cached
#                  under $$(os.UserCacheDir())/gpowerlint (DESIGN.md §9.9),
#                  directory groups run one after another in path order
#                  (DESIGN.md §9.13), and the target prints its wall time so
#                  cache regressions are visible in CI logs.
#   make alloccheck — zero-allocation gate: interprocedurally proves every
#                  //gpower:noalloc-annotated hot-path root allocation-free
#                  (internal/alloccheck; see DESIGN.md §13), failing on any
#                  unproven root, reasonless //gpower:allocs hatch, or dead
#                  hatch. Runs the prover twice (cold, then warm over the OS
#                  page cache), requires byte-identical reports, and prints
#                  both wall times like `make lint`; must stay green on
#                  every PR.
#   make lint-bench — cold vs warm timing into a fresh facts dir; the
#                  numbers recorded in EXPERIMENTS.md come from here.
#   make bench   — regenerate the paper's tables/figures (EXPERIMENTS.md numbers)
#   make speedup — serial vs parallel Estimate comparison per device catalog
#   make bench-json — run the perf-relevant Go benchmarks plus the speedup
#                  and fleet-fit experiments and consolidate everything into
#                  BENCH_results.json (ns/op, B/op, allocs/op, reference-vs-
#                  restructured estimate-fit factors, fleet models/min;
#                  seed 42). Also drives the gpowerd HTTP load harness for
#                  SERVE_DURATION over SERVE_CONNS keep-alive connections
#                  (the serve_predict row) and the fleet discrete-event DVFS
#                  simulation over CLUSTER_GPUS GPUs for CLUSTER_HORIZON
#                  simulated seconds (the cluster_sim row: per-policy energy
#                  and deadline outcomes plus single-core events/sec). Fails
#                  if a large-device estimate-fit speedup drops below
#                  MIN_ESTIMATE_SPEEDUP (default 2.0), the served
#                  predictions/sec drop below MIN_SERVE_THROUGHPUT (default
#                  1,000,000) or the cluster engine drops below
#                  MIN_CLUSTER_EVENTS simulated events/sec (default
#                  1,000,000; CI passes lower bars to tolerate shared
#                  runners). BENCHTIME=1x makes it a smoke run (CI default
#                  here); raise it locally for stable numbers.

GO ?= go
BENCHTIME ?= 1x

# The benchmark subset bench-json records: the estimation and DVFS hot
# paths this repo optimizes, not the full paper-figure regeneration suite.
BENCH_JSON_PATTERN = 'Benchmark(Predict|NNLS(Cold)?|Isotonic|DVFSSearch|EvaluateOperatingPoints|FindBestConfigWarm|Estimate(Serial|Parallel|Reference)|FleetFit|ClusterEvents)$$'

# bench-json regression gate: the estimate-fit speedup rows for the large
# devices (Titan Xp, GTX Titan X) must stay at or above this factor, else
# benchjson exits non-zero and the CI bench-smoke job fails.
MIN_ESTIMATE_SPEEDUP ?= 2.0

# gpowerd load-harness knobs for the serve_predict row: wall time of the
# timed phase, client connections, and the sustained predictions/sec floor
# (0 disables the gate; SERVE_DURATION=0 skips the harness entirely).
SERVE_DURATION ?= 2s
SERVE_CONNS ?= 4
MIN_SERVE_THROUGHPUT ?= 1000000

# Cluster-simulation knobs for the cluster_sim row: fleet size, simulated
# arrival horizon (seconds), and the single-core simulated-events/sec floor
# (0 disables the gate; CLUSTER_GPUS=0 skips the simulation entirely). The
# local target is >=1M events/sec for a 1,000-GPU fleet; CI passes a lower
# floor and a shorter horizon to tolerate shared runners.
CLUSTER_GPUS ?= 1000
CLUSTER_HORIZON ?= 20
MIN_CLUSTER_EVENTS ?= 1000000

.PHONY: all build test verify vet race lint alloccheck lint-bench cover bench speedup bench-json clean

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

verify: build test

vet:
	$(GO) vet ./...

race: vet
	$(GO) test -race ./...

lint:
	@start=$$(date +%s%N); \
	$(GO) run ./cmd/gpowerlint -cache-stats ./...; status=$$?; \
	end=$$(date +%s%N); \
	echo "lint: $$(( (end - start) / 1000000 )) ms wall"; \
	exit $$status

# alloccheck proves the annotated hot paths twice with a prebuilt binary:
# a cold run and a warm run over the same tree. The reports must be
# byte-identical (the determinism contract of DESIGN.md §13); both wall
# times are printed so a prover slowdown is visible in CI logs.
alloccheck:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/alloccheck" ./cmd/alloccheck || exit $$?; \
	start=$$(date +%s%N); \
	"$$tmp/alloccheck" ./... > "$$tmp/cold.txt"; status=$$?; \
	end=$$(date +%s%N); cold=$$(( (end - start) / 1000000 )); \
	cat "$$tmp/cold.txt"; \
	[ $$status -eq 0 ] || exit $$status; \
	start=$$(date +%s%N); \
	"$$tmp/alloccheck" ./... > "$$tmp/warm.txt"; status=$$?; \
	end=$$(date +%s%N); warm=$$(( (end - start) / 1000000 )); \
	[ $$status -eq 0 ] || exit $$status; \
	cmp -s "$$tmp/cold.txt" "$$tmp/warm.txt" || { echo "alloccheck: cold and warm reports differ"; exit 1; }; \
	echo "alloccheck: cold $$cold ms, warm $$warm ms"

# lint-bench times a cold run (fresh facts dir: full parse + type check of
# the module), then a warm run over the identical tree, using a prebuilt
# binary so `go run` compilation noise stays out of the measurements.
# Output is byte-identical across both; only the wall clock moves.
lint-bench:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/gpowerlint" ./cmd/gpowerlint; \
	start=$$(date +%s%N); \
	"$$tmp/gpowerlint" -cache-stats -facts-dir "$$tmp/facts" ./... || exit $$?; \
	end=$$(date +%s%N); cold=$$(( (end - start) / 1000000 )); \
	start=$$(date +%s%N); \
	"$$tmp/gpowerlint" -cache-stats -facts-dir "$$tmp/facts" ./... || exit $$?; \
	end=$$(date +%s%N); warm=$$(( (end - start) / 1000000 )); \
	echo "lint-bench: cold $$cold ms, warm $$warm ms"

cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./... ./...
	$(GO) tool cover -func=cover.out | tail -1

bench:
	$(GO) test -bench . -benchmem ./

speedup:
	$(GO) test -run NONE -bench 'BenchmarkEstimate(Serial|Parallel)' -benchtime 3x ./

bench-json:
	$(GO) test -run NONE -bench $(BENCH_JSON_PATTERN) -benchmem -benchtime $(BENCHTIME) ./ | tee bench_raw.txt
	$(GO) run ./cmd/benchjson -bench bench_raw.txt -o BENCH_results.json \
		-min-estimate-speedup $(MIN_ESTIMATE_SPEEDUP) \
		-serve-duration $(SERVE_DURATION) -serve-conns $(SERVE_CONNS) \
		-min-serve-throughput $(MIN_SERVE_THROUGHPUT) \
		-cluster-gpus $(CLUSTER_GPUS) -cluster-horizon $(CLUSTER_HORIZON) \
		-min-cluster-events $(MIN_CLUSTER_EVENTS)
	@rm -f bench_raw.txt

clean:
	$(GO) clean ./... && rm -f cover.out bench_raw.txt
