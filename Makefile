# gpupower build / verify targets.
#
# Tiers:
#   make verify  — tier-1 gate (build + full test suite), what every PR must keep green
#   make race    — concurrency gate: go vet + the full suite under the race
#                  detector. Fleet fitting, the experiment drivers and the
#                  cluster simulator fan out across a worker pool
#                  (internal/parallel); this tier is what keeps the
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
#   make bench-json — run the perf-relevant Go benchmarks of the root package
#                  and internal/cluster and consolidate their rows (ns/op,
#                  B/op, allocs/op and each row's reported metrics: fleet
#                  models/min, served predictions/sec, simulated events/sec)
#                  plus the alloccheck proof into BENCH_results.json, stamped
#                  with CPU count, GOMAXPROCS, Go version, GOOS/GOARCH and
#                  commit (benchjson is built, not `go run`, so the commit is
#                  embedded). benchjson times nothing itself. A failing
#                  benchmark fails the target before benchjson runs;
#                  benchjson fails after writing the file if a root is
#                  unproven or a gated row is missing or above its
#                  ceiling: one GTX Titan X fit
#                  (BenchmarkEstimate/GTX_Titan_X) 100 ms,
#                  BenchmarkServePredict 82 ms and BenchmarkClusterEvents
#                  1296 ms per op (the table in cmd/benchjson). BENCHTIME=1x
#                  makes it a smoke run (CI default here); raise it locally
#                  for stable numbers. The figures of record are perfbench's
#                  workloads; the ceilings only catch a gross regression.

GO ?= go
BENCHTIME ?= 1x

# The benchmark subset bench-json records, and the packages it runs: the
# estimation, DVFS, serving and cluster hot paths this repo optimizes, not
# the full paper-figure regeneration suite.
BENCH_JSON_PATTERN = 'Benchmark(Predict|NNLS(Cold)?|Isotonic|DVFSSearch|EvaluateOperatingPoints|FindBestConfigWarm|Estimate|FleetFit|ServePredict|ClusterEvents)$$'
BENCH_JSON_PACKAGES = ./ ./internal/cluster/

.PHONY: all build test verify vet race lint alloccheck lint-bench cover bench bench-json clean

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

# bench-json builds benchjson rather than `go run`ning it, like alloccheck
# above: only a built binary carries the commit it stamps into the artifact.
# The raw rows are written to a file and then printed, not piped through
# tee, so a failing benchmark fails the target with go test's status.
bench-json:
	$(GO) test -run NONE -bench $(BENCH_JSON_PATTERN) -benchmem -benchtime $(BENCHTIME) $(BENCH_JSON_PACKAGES) > bench_raw.txt; \
	status=$$?; cat bench_raw.txt; exit $$status
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/benchjson" ./cmd/benchjson || exit $$?; \
	"$$tmp/benchjson" -bench bench_raw.txt -o BENCH_results.json
	@rm -f bench_raw.txt

clean:
	$(GO) clean ./... && rm -f cover.out bench_raw.txt
