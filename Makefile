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
                ./internal/tenant ./cmd/mpass-load

# Build outputs and gate inputs live here (git-ignored); gates write nothing
# else. The serving drills run mpass-load from $(BIN), next to the mpassd
# and mpass-gateway binaries it execs.
BUILD = .build
BIN = $(BUILD)/bin

.PHONY: all build vet lint lint-bench test race race-all bench bench-full \
        quant-gate alloc loadbins serve-smoke serve-faults reload-smoke \
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
# (ns(baseline)/ns(full) >= 0.5).
lint-bench:
	@mkdir -p $(BUILD)
	$(GO) test -run '^$$' -bench 'Lint(Baseline|Full)$$' -benchtime=3x -count=1 \
		./internal/analysis > $(BUILD)/lint-bench.txt || { cat $(BUILD)/lint-bench.txt; exit 1; }
	$(GO) run ./cmd/benchjson -gate 'BenchmarkLintBaseline,BenchmarkLintFull,0.5' \
		< $(BUILD)/lint-bench.txt

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

# quant-gate is the fixed-point speedup gate: the int32 quantized table
# path must beat the float64 table path by >= 1.3x, measured in a single
# `go test -bench` run on the serving-size network so machine noise
# cancels. (The matching accuracy gates — <= 1e-6 score deviation and zero
# label flips on the eval corpus — are ordinary tests in internal/nn and
# internal/detect.)
quant-gate:
	@mkdir -p $(BUILD)
	$(GO) test -run '^$$' -bench 'PredictTable(Float|Quant32)$$' -count=1 \
		./internal/nn > $(BUILD)/quant-gate.txt || { cat $(BUILD)/quant-gate.txt; exit 1; }
	$(GO) run ./cmd/benchjson -gate 'BenchmarkPredictTableFloat,BenchmarkPredictTableQuant32,1.3' \
		< $(BUILD)/quant-gate.txt

# The serving drills. Each is a scenarios/*.json file that mpass-load boots
# (mpassd replicas, optionally behind mpass-gateway), drives, judges and
# drains with SIGTERM; a violated threshold or invariant exits 3. See
# DESIGN.md "Load generation" for the DSL and the always-on invariants.
loadbins:
	$(GO) build -o $(BIN)/ ./cmd/mpassd ./cmd/mpass-gateway ./cmd/mpass-load

# serve-smoke: int32 serving, a 4-client scan burst, one attack job that
# must end done, and a 2 MiB chunked upload /metrics must have streamed.
serve-smoke: loadbins
	$(BIN)/mpass-load scenarios/serve-smoke.json

# serve-faults: mpassd injects oracle hangs, transient errors and latency;
# every attack job must still reach a terminal state (failed is allowed)
# and the drain must complete.
serve-faults: loadbins
	$(BIN)/mpass-load scenarios/serve-faults.json

# reload-smoke: three model hot-reloads inside a scan burst; every swap must
# certify and land, every scan must carry a generation the server really
# served, and /healthz must agree with the last swap.
reload-smoke: loadbins
	$(BIN)/mpass-load scenarios/reload-smoke.json

# cluster-smoke: 3 replicas behind the gateway sharing one models/ directory;
# a single-replica burst against a gateway burst (host-aware scale-out
# bound), the shard-affinity bounds, attack jobs through the gateway, and a
# SIGKILL drill that must lose no scan while the ring re-shards.
cluster-smoke: loadbins
	$(BIN)/mpass-load scenarios/cluster-smoke.json

# alloc is the allocation-regression gate: the scoring and gradient hot
# paths — float, quantized, and streaming — must stay zero-allocation in
# steady state.
alloc:
	$(GO) test -run 'ZeroAlloc' -count=1 ./internal/nn

# scenario-gate is the multi-tenant serving gate: the noisy-neighbor
# scenario (2 replicas with the scenarios/tenants.json allowlist behind the
# gateway; p99, shed rate, fairness, correctness) must pass, and first must
# fail with exit 3 under an impossible p99 bound — proof that a violated
# threshold fails CI. tenant-reload then SIGHUPs a replica and requires
# authenticated traffic to keep flowing and every anonymous request to 401.
scenario-gate: loadbins
	$(BIN)/mpass-load -scenario-max-p99 1ns scenarios/noisy-neighbor.json; \
		test $$? -eq 3 || { echo "scenario-gate: an impossible p99 bound did not fail the run" >&2; exit 1; }
	$(BIN)/mpass-load scenarios/noisy-neighbor.json
	$(BIN)/mpass-load scenarios/tenant-reload.json

# perfbench is the repository benchmark (perfbench/README.md): every
# workload untraced, then traced, on loopback servers in one process.
# Expect several minutes; it writes only under .bench_build/.
perfbench:
	python3 perfbench/run.py --workload all

# perfbench-test runs the benchmark's own unit tests (a separate module).
perfbench-test:
	cd perfbench && $(GO) test .

ci: build vet lint lint-bench test race alloc bench quant-gate serve-smoke serve-faults reload-smoke cluster-smoke scenario-gate perfbench-test
