# Developer entry points for the layout-scheduling reproduction.
#
#   make build      compile every package and command
#   make vet        static analysis over the whole module
#   make test       full test suite (tier-1 verify alongside build), then
#                   the benchmark module's own vet + tests
#   make bench-module  vet and test benchmark/ (its own module, which imports
#                   repro/internal/...) against the current internals
#   make test-race  short-mode race check of the concurrency-heavy packages
#   make chaos      fault-injection tests under the race detector
#   make fuzz       native fuzz targets, $(FUZZTIME) each
#   make flake      repeat the clock/cluster-sensitive suites 5x under -race
#   make bench      run every benchmark once, human-readable
#   make bench-smoke  run the root, core, dataset, serve, telemetry, sparse,
#                   spgemm and fault benchmarks once each
#   make examples   run every examples/* program; any non-zero exit fails
#   make metrics-lint  validate /metrics exposition well-formedness
#   make loadgen-smoke  boot a 3-node ring and drive it with cmd/loadgen
#   make run-layoutd  start the layout-scheduling daemon on $(LAYOUTD_ADDR)
#   make clean      remove what building and running the gated benchmark leave

GO ?= go
RACE_PKGS := ./internal/parallel/... ./internal/sparse/... ./internal/spgemm/... ./internal/core/... ./internal/svm/... ./internal/serve/... ./internal/learn/... ./internal/fault/... ./internal/telemetry/... ./internal/cluster/... ./internal/online/... ./internal/breaker/...
CHAOS_PKGS := ./internal/parallel ./internal/core ./internal/serve ./internal/breaker
FUZZTIME ?= 20s
LAYOUTD_ADDR ?= :8723

.PHONY: build vet test bench-module test-race chaos fuzz flake bench bench-smoke examples metrics-lint loadgen-smoke run-layoutd clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: bench-module
	$(GO) test ./...

# benchmark/ is a module of its own, so `go test ./...` never descends into
# it; without this target an internal API change that breaks it would only
# surface when the gated benchmark run fails to build.
bench-module:
	cd benchmark && $(GO) vet . && $(GO) test .

test-race:
	$(GO) test -race -short $(RACE_PKGS)

# Chaos: seeded failpoints (delays, errors, panics, timer skew) driven
# through the scheduler, the pool, and the daemon, under the race detector.
chaos:
	$(GO) test -race -run 'Chaos|Panic|Breaker' -count=1 $(CHAOS_PKGS)

# Fuzz: each native fuzz target gets $(FUZZTIME) of exploration. go test
# fuzzes one target per invocation, hence one run each. FuzzParseLIBSVM,
# FuzzScheduleEnvelope, FuzzEncodeDecision and FuzzEncodeForward are
# differentials against the legacy parse route and encoding/json (decoding
# and encoding); the legacy route reads every number with strconv, so
# FuzzParseLIBSVM is also the strconv differential for the tokenizer's exact
# decimal fast path. FuzzVerdictWire holds a cache entry's wire form to a round
# trip;
# FuzzBuilderRecycle holds a builder that recycles its matrices' storage to
# a fresh builder's builds; FuzzColumnPair holds CSC's column pair to CSR's
# fused pair bit for bit; FuzzLoadHistory and FuzzLoadForest feed every
# input to both workloads' history and model loaders. Every target's seed
# corpus also runs as a plain test in `make test`.
fuzz:
	$(GO) test -fuzz '^FuzzParseLIBSVM$$' -fuzztime $(FUZZTIME) ./internal/dataset
	$(GO) test -fuzz '^FuzzTripletFeatures$$' -fuzztime $(FUZZTIME) ./internal/dataset
	$(GO) test -fuzz '^FuzzScheduleRequest$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -fuzz '^FuzzScheduleEnvelope$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -fuzz '^FuzzEncodeDecision$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -fuzz '^FuzzEncodeForward$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -fuzz '^FuzzVerdictWire$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -fuzz '^FuzzSpGEMM$$' -fuzztime $(FUZZTIME) ./internal/spgemm
	$(GO) test -fuzz '^FuzzOnlineHarvestRecord$$' -fuzztime $(FUZZTIME) ./internal/online
	$(GO) test -fuzz '^FuzzBuilderCanonical$$' -fuzztime $(FUZZTIME) ./internal/sparse
	$(GO) test -fuzz '^FuzzBuilderRecycle$$' -fuzztime $(FUZZTIME) ./internal/sparse
	$(GO) test -fuzz '^FuzzColumnPair$$' -fuzztime $(FUZZTIME) ./internal/sparse
	$(GO) test -fuzz '^FuzzLoadModel$$' -fuzztime $(FUZZTIME) ./internal/svm
	$(GO) test -fuzz '^FuzzLoadHistory$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -fuzz '^FuzzLoadForest$$' -fuzztime $(FUZZTIME) ./internal/learn

# Flake detector: the fake-clock state machine and the cluster suite are
# the two places where nondeterminism would hide; five repetitions under
# the race detector surface any order dependence cheaply.
flake:
	$(GO) test -race -count=5 ./internal/online ./internal/cluster

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Bench smoke: one iteration of each benchmark in the packages whose
# benchmarks EXPERIMENTS.md cites — the root package's per-clone kernel and
# decision benchmarks (BenchmarkSMOIteration, BenchmarkChoose, the paper
# experiments), the request front half's (BenchmarkScheduleFrontHalf,
# BenchmarkAccumulator and the serve hit paths), the fault layer's overhead
# guards (BenchmarkChooseFaultsOff, BenchmarkInjectFaultsOff), tracing's own
# cost (BenchmarkTraceRecord), and the format kernels' and SpGEMM dataflows'
# (internal/sparse, internal/spgemm) — so they keep running, not only
# compiling.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/core ./internal/dataset ./internal/serve ./internal/telemetry ./internal/sparse ./internal/spgemm ./internal/fault

# Examples: each program under examples/ runs to completion. The tests reach
# most of the library, but examples/svr is the one program that trains ε-SVR.
examples:
	@set -e; for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d; done

# Metrics lint: stand up an in-process layoutd server, run a schedule
# decision through it, scrape /metrics, and fail on any exposition defect
# (missing TYPE lines, duplicate series, non-cumulative histograms, ...).
metrics-lint:
	$(GO) run ./cmd/metricslint

# Loadgen smoke: 3 clustered layoutd nodes on localhost, closed-loop
# traffic, fails on any 5xx/transport error or a blown p99.
loadgen-smoke:
	./scripts/loadgen_smoke.sh

run-layoutd:
	$(GO) run ./cmd/layoutd -addr $(LAYOUTD_ADDR)

clean:
	rm -rf .bench_build benchmark/out
