# Build / verify entry points. `make ci` is the gate: build, vet, tests,
# the race detector over the parallel engine, and a benchmark smoke.

GO ?= go

# Packages owning the parallel compute layer and its parity tests; the race
# target drills into these (the full suite under -race is race-all, which
# retrains every eval model and takes tens of minutes).
PARALLEL_PKGS = ./internal/parallel ./internal/tensor ./internal/nn \
                ./internal/shapley ./internal/detect ./internal/av \
                ./internal/server ./internal/features ./internal/gateway \
                ./internal/faultinject ./internal/engine ./internal/analysis \
                ./internal/tenant

# BENCH_N.json names follow the PR sequence and are append-only history:
# benchjson refuses to overwrite an existing trajectory file, so a new run
# bumps the number (or passes FORCE_BENCH=1 to regenerate in place).
BENCH_JSON ?= BENCH_4.json
SERVE_BENCH_JSON ?= BENCH_5.json
CLUSTER_BENCH_JSON ?= BENCH_6.json
RELOAD_BENCH_JSON ?= BENCH_7.json
LINT_BENCH_JSON ?= BENCH_8.json
SCENARIO_BENCH_JSON ?= BENCH_9.json
BENCHJSON_FORCE = $(if $(FORCE_BENCH),-force,)

.PHONY: all build vet lint lint-bench test race race-all bench bench-full \
        bench-json quant-gate alloc serve-smoke serve-faults reload-smoke \
        cluster-smoke scenario-gate perfbench perfbench-test ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the repo's own invariant analyzers (internal/analysis via
# cmd/mpass-lint): goroutine discipline, weight-mutation guards,
# determinism, typed atomics, bounded serving queues, the
# //mpass:zeroalloc pragma, and the round-2 dataflow set — snapshotonce
# (one generation pin per request path), mutexguard (//mpass:guardedby
# lock discipline), versionkey ((version, hash) cache keys), failclosed
# (error-tainted scores never reach responses, caches, or nil-error
# returns). Non-zero exit on any finding.
lint:
	$(GO) run ./cmd/mpass-lint ./...

# lint-bench gates the dataflow round's cost: a full 11-analyzer run over
# the loaded tree must stay within 2x of the PR 4 per-file baseline
# (ns(baseline)/ns(full) >= 0.5). Writes $(LINT_BENCH_JSON) on first run
# (append-only; FORCE_BENCH=1 regenerates).
lint-bench:
	$(GO) test -run '^$$' -bench 'Lint(Baseline|Full)$$' -benchtime=3x -count=1 \
		./internal/analysis | $(GO) run ./cmd/benchjson $(BENCHJSON_FORCE) \
		-gate 'BenchmarkLintBaseline,BenchmarkLintFull,0.5' -out $(LINT_BENCH_JSON)

test:
	$(GO) test ./...

# race also repeats the batcher's parity test ten times: a flush scores its
# engines on parallel workers, and repetition widens the interleavings the
# detector sees.
race:
	$(GO) test -race -count=1 $(PARALLEL_PKGS)
	$(GO) test -race -count=10 -run '^TestBatcherParityWithDirectScore$$' ./internal/server

race-all:
	$(GO) test -race -count=1 ./...

# bench is the quick smoke: the data-parallel training step across worker
# counts, no experiment-suite setup.
bench:
	$(GO) test -run '^$$' -bench 'TrainBatchParallel' -benchtime=3x -benchmem .

# bench-full sweeps every micro- and experiment benchmark (sets up the full
# evaluation suite; expect minutes).
bench-full:
	$(GO) test -run '^$$' -bench . -benchmem .

# bench-json runs the inference-engine benchmarks and a serving-layer load
# run, writing machine-readable reports for regression diffing.
bench-json:
	$(GO) test -run '^$$' \
		-bench 'DetectorPredict$$|DetectorPredictQuant$$|StreamScore$$|InputGradient$$|ShapleySample$$' \
		-benchmem -count=1 . | $(GO) run ./cmd/benchjson $(BENCHJSON_FORCE) -out $(BENCH_JSON)
	sh scripts/serve_bench.sh bench | $(GO) run ./cmd/benchjson $(BENCHJSON_FORCE) -out $(SERVE_BENCH_JSON)

# quant-gate is the fixed-point speedup gate: the int32 quantized table
# path must beat the float64 table path by >= 1.3x, measured in a single
# `go test -bench` run on the serving-size network so machine noise
# cancels. (The matching accuracy gates — <= 1e-6 score deviation and zero
# label flips on the eval corpus — are ordinary tests in internal/nn and
# internal/detect.)
quant-gate:
	$(GO) test -run '^$$' -bench 'PredictTable(Float|Quant32)$$' -count=1 \
		./internal/nn | $(GO) run ./cmd/benchjson \
		-gate 'BenchmarkPredictTableFloat,BenchmarkPredictTableQuant32,1.3' >/dev/null

# serve-smoke boots mpassd on a random port, drives it with mpass-load
# (healthz preflight, scan burst, one attack job, /metrics cross-check), and
# verifies a graceful SIGTERM drain.
serve-smoke:
	sh scripts/serve_bench.sh smoke

# serve-faults is the resilience drill: mpassd runs with deterministic
# oracle fault injection (hangs, transient errors, latency) and mpass-load
# -faults verifies every attack job still reaches a terminal state, then the
# SIGTERM drain must complete within its deadline.
serve-faults:
	sh scripts/serve_bench.sh faults

# reload-smoke is the zero-downtime hot-reload drill: mpassd persists its
# engines as a per-engine envelope directory, then mpass-load -reload swaps
# model generations from inside a sustained scan burst — every swap must
# certify (health, finite probes, int32 quant parity) and land, every scan
# response must carry a generation the server really served, and /healthz
# and /metrics must agree with the last swap. Writes $(RELOAD_BENCH_JSON)
# on first run (append-only; FORCE_BENCH=1 regenerates).
reload-smoke:
	sh scripts/serve_bench.sh reload | $(GO) run ./cmd/benchjson \
		$(BENCHJSON_FORCE) -out $(RELOAD_BENCH_JSON)

# cluster-smoke boots 3 mpassd replicas behind mpass-gateway (one training
# run, shared models.gob), compares a single-replica burst against the same
# burst through the gateway (host-aware speedup gate — 2.5x on >= 4 CPUs,
# a sanity bound on smaller hosts), enforces the shard-affinity checks
# (per-replica cache-hit ratio >= 0.9, misses near the distinct-sample
# count), and runs a replica kill drill: SIGKILL one replica and require
# zero failed scans while the ring re-shards. Writes $(CLUSTER_BENCH_JSON)
# on first run.
cluster-smoke:
	CLUSTER_BENCH_JSON=$(CLUSTER_BENCH_JSON) FORCE_BENCH=$(FORCE_BENCH) \
		sh scripts/serve_cluster.sh smoke

# alloc is the allocation-regression gate: the scoring and gradient hot
# paths — float, quantized, and streaming — must stay zero-allocation in
# steady state.
alloc:
	$(GO) test -run 'ZeroAlloc' -count=1 ./internal/nn

# scenario-gate is the multi-tenant serving gate: a 2-replica fleet with
# the scenarios/tenants.json allowlist behind the gateway runs the
# noisy-neighbor scenario (phased multi-tenant contention, mixed
# scan/cachemiss/attack/stream traffic) and enforces its thresholds —
# p99, shed rate, per-tenant fairness bound, correctness == 1.0,
# Retry-After >= 1 on every 429. A negative drill first proves a broken
# threshold exits non-zero, then a SIGHUP drill proves the allowlist
# hot-reload keeps auth closed. Writes $(SCENARIO_BENCH_JSON) on first run.
scenario-gate:
	SCENARIO_BENCH_JSON=$(SCENARIO_BENCH_JSON) FORCE_BENCH=$(FORCE_BENCH) \
		sh scripts/scenario_gate.sh

# perfbench is the repository benchmark (perfbench/README.md): every
# workload untraced, then traced, on loopback servers in one process.
# Expect several minutes; it writes only under .bench_build/.
perfbench:
	python3 perfbench/run.py --workload all

# perfbench-test runs the benchmark's own unit tests (a separate module).
perfbench-test:
	cd perfbench && $(GO) test .

ci: build vet lint lint-bench test race alloc bench quant-gate serve-smoke serve-faults reload-smoke cluster-smoke scenario-gate perfbench-test
