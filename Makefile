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
#   make lint    — static-analysis gate: gpowerlint (internal/lint; see
#                  DESIGN.md §9) runs the in-tree analyzers over ./... and
#                  then proves every //gpower:noalloc hot-path root
#                  allocation-free (internal/alloccheck; DESIGN.md §13),
#                  failing on any diagnostic, unproven root, or bad
#                  //lint:ignore or //gpower: directive. The analyzers
#                  mechanically enforce determinism (maporder, floateq),
#                  cancellation (ctxflow), pooled-spawn (gonosync),
#                  unit-provenance (unitflow, with cross-package facts)
#                  and live-suppression (unusedignore) invariants; -race
#                  and run-time tests hold the rest (DESIGN.md §9). The
#                  target builds gpowerlint once, runs it twice, requires
#                  byte-identical reports (stdout and stderr, the proof's
#                  summary line included) and prints
#                  both wall times so a loader or prover slowdown is
#                  visible in CI logs; must stay green on every PR.
#   make bench   — regenerate the paper's tables/figures (EXPERIMENTS.md numbers)
#   make bench-json — run the perf-relevant Go benchmarks of the root package
#                  and internal/cluster and consolidate their rows (ns/op,
#                  B/op, allocs/op and each row's reported metrics: fleet
#                  models/min, served predictions/sec, simulated events/sec)
#                  plus the alloccheck proof into BENCH_results.json, stamped
#                  with CPU count, GOMAXPROCS, Go version, GOOS/GOARCH and
#                  commit (benchjson is built, not `go run`, so the commit is
#                  embedded). benchjson times only the proof (the
#                  alloccheck row's wall_ns). A failing
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

.PHONY: all build test verify vet race lint cover bench bench-json clean

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

# lint builds gpowerlint once and runs it twice over the same tree. The two
# reports must be byte-identical (the determinism contract of DESIGN.md
# §9.13 and §13); both wall times are printed.
lint:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/gpowerlint" ./cmd/gpowerlint || exit $$?; \
	start=$$(date +%s%N); \
	"$$tmp/gpowerlint" ./... > "$$tmp/first.txt" 2>&1; status=$$?; \
	end=$$(date +%s%N); first=$$(( (end - start) / 1000000 )); \
	cat "$$tmp/first.txt"; \
	[ $$status -eq 0 ] || exit $$status; \
	start=$$(date +%s%N); \
	"$$tmp/gpowerlint" ./... > "$$tmp/second.txt" 2>&1; status=$$?; \
	end=$$(date +%s%N); second=$$(( (end - start) / 1000000 )); \
	cmp -s "$$tmp/first.txt" "$$tmp/second.txt" || { echo "lint: the two runs' reports differ:"; diff "$$tmp/first.txt" "$$tmp/second.txt"; exit 1; }; \
	[ $$status -eq 0 ] || exit $$status; \
	echo "lint: first run $$first ms, second run $$second ms wall"

cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./... ./...
	$(GO) tool cover -func=cover.out | tail -1

bench:
	$(GO) test -bench . -benchmem ./

# bench-json builds benchjson rather than `go run`ning it: only a built
# binary carries the commit it stamps into the artifact.
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
