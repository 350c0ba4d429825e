GO ?= go

.PHONY: all build test race vet bench bench-assign bench-predict perfcheck benchguard chaos cluster cluster-smoke replay fuzz-smoke matrix matrix-check staticcheck fmt fmt-check perfbench ci

all: build test

build:
	$(GO) build ./...

# The full suite, including the goroutine-leak check on server shutdown
# (TestListenAndServeShutdownLeaksNoGoroutines) and the checkpoint
# kill-and-resume bit-identity tests.
test:
	$(GO) test ./...

# Full suite under the race detector; the concurrency core (internal/par)
# and everything layered on it must stay race-clean.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Quick-scale benchmarks, including the parallel-vs-sequential speedup
# benches (BenchmarkTrainParallel / BenchmarkSimulateParallel), then refresh
# the NN kernel before/after record (baseline is preserved across runs).
bench:
	$(GO) test -run XXX -bench . -benchmem .
	$(GO) run ./cmd/tampbench -json BENCH_nn.json

# Batch-assignment benchmarks (spatial index + sparse KM) at 500×500 to
# 5k×5k, then refresh BENCH_assign.json. A fresh file records the
# brute-force scan as the baseline, so the committed record shows the
# speedup the candidate index buys.
bench-assign:
	$(GO) test ./internal/assign -run XXX -bench 'BenchmarkAssign' -benchmem
	$(GO) run ./cmd/tampbench -assign-json BENCH_assign.json

# Prediction-engine benchmarks: forecast-cache hit path, allocation-free
# rollouts, batched-vs-streamed gradient kernels, and the end-to-end
# stationary-workload simulate. Refreshes BENCH_predict.json; a fresh file
# measures the replaced path (recompute-every-call forecasts, per-sample
# streamed gradients) interleaved with the current one and records it as
# the baseline, so the committed record shows what the engine buys.
bench-predict:
	$(GO) run ./cmd/tampbench -predict-json BENCH_predict.json

# Allocation-regression gate: the warmed NN hot path (Seq2Seq
# Predict/Grad/BatchLoss/BatchGrad, streamed and batched, plus Adam.Step)
# must stay at 0 allocs/op, the warmed sparse-KM matcher and the stage-2
# candidate sort must stay at 0 allocs per call, and the warmed prediction
# engine (PredictFutureInto, EvaluateOnRoutine, cache hits) must stay at 0
# allocs per call. Each gate is named exactly; scripts/gates.sh fails if
# any named test did not run and pass, so a renamed or deleted gate cannot
# drop out silently.
perfcheck:
	GO=$(GO) scripts/gates.sh ./internal/nn TestSeq2SeqSteadyStateAllocFree TestBatchedKernelsSteadyStateAllocFree TestAdamStepAllocFree
	GO=$(GO) scripts/gates.sh ./internal/assign TestMatcherSteadyStateAllocFree TestMatcherAllocsDoNotGrowWithBatches TestMatchWarmSteadyStateAllocFree TestMatchWarmColdPathAllocFree TestSortPendingAllocFree
	GO=$(GO) scripts/gates.sh ./internal/predict TestPredictFutureIntoZeroAlloc TestEvaluateOnRoutineZeroAlloc TestCacheHitZeroAlloc

# Benchmark-regression gate: re-run the NN kernel, batch-assignment, and
# prediction-engine suites and compare against the committed BENCH_nn.json /
# BENCH_assign.json / BENCH_predict.json baselines. Fails on >25% ns/op
# growth or any allocs/op growth. Timing on shared runners is noisy — CI
# runs this as a non-blocking job; treat a local failure on an idle machine
# as real.
benchguard:
	$(GO) run ./cmd/tampbench -check BENCH_nn.json -check-assign BENCH_assign.json -check-predict BENCH_predict.json -tolerance 0.25

# Fault-injection regression suite under the race detector: the injector
# itself, the platform chaos run (churn + dropped/noised reports + predictor
# failures + delayed decisions), panic isolation, and the server's
# degraded-mode fallbacks.
chaos:
	$(GO) test -race ./internal/fault/ -v
	$(GO) test -race ./internal/platform/ -run 'Chaos|PanicModel' -v
	$(GO) test -race ./internal/server/ -run 'Panic|Degrade|BatchDeadline|OfferOutstanding' -v
	$(GO) test -race ./internal/par/ -run 'Panic|Retry' -v

# Bring up the region-sharded serving tier end to end: two durable tampserver
# shards, a tamprouter fronting them, and a tampgen -drive load run through
# the router, reporting latency percentiles and the error budget.
cluster:
	scripts/cluster.sh

# The resilience gate, blocking in CI. Two layers:
#   1. In-process deterministic chaos: kill a durable shard under router
#      traffic (listener drop and mid-WAL-append crash injection), assert the
#      breaker opens, traffic degrades (queue/shed/failover), and the
#      WAL-recovered shard's state digest matches a never-killed oracle with
#      zero acked ops lost.
#   2. Multi-process smoke: real processes, kill -9, WAL rejoin on the same
#      address, readiness-gated readmission, availability asserted from the
#      drive report.
cluster-smoke:
	$(GO) test -race -count=1 ./internal/tier/ -run 'TestClusterChaosFailoverDigest|TestShardCrashMidAppendRejoins|TestRouterClosedShardTripsBreaker|TestRouterQueueShedAndFlush|TestRouterBorderFailover' -v
	CLUSTER_SMOKE=1 scripts/cluster.sh

# End-to-end replay demo: record a small simulation as a platform event log,
# then re-run the identical batches offline through two assigners and report
# how much of the live plan each would have re-proposed.
REPLAY_DIR ?= /tmp/tamp-replay
replay:
	rm -rf $(REPLAY_DIR)
	$(GO) run ./cmd/tampsim -workers 12 -tasks 200 -iters 3 -record $(REPLAY_DIR)
	$(GO) run ./cmd/tampbench -replay $(REPLAY_DIR) -assigner PPI
	$(GO) run ./cmd/tampbench -replay $(REPLAY_DIR) -assigner KM

# Native-fuzzing smoke: every fuzz target runs briefly against fresh random
# inputs (the checked-in corpora always run under plain `make test`). Each
# target needs its own invocation — go test allows one -fuzz per run.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/ingest -run '^$$' -fuzz FuzzLoadWorkersCSV -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ingest -run '^$$' -fuzz FuzzLoadTasksCSV -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzWasserstein1D -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzRecover -fuzztime $(FUZZTIME)

# Regenerate the benchmark matrix: every scenario generator (paper, windows,
# budget) × every assigner (UB, PPI, KM, GGPSO, Greedy, LB) at the smoke and
# quick scales, written to BENCH_matrix.json + MATRIX.md. Cells are
# deterministic for a given scale, so the committed files only change when
# the simulator, a generator, or an assigner changes behaviour — regenerate
# and commit both files together with the change that moved them.
matrix:
	$(GO) run ./cmd/tampbench -matrix

# Matrix regression gate, blocking in CI: re-run the smoke-scale cells and
# diff against the committed BENCH_matrix.json with per-metric tolerances
# (counts 2%, rates ±0.02, cost 5%; assign latency is never compared). The
# fresh cells land in matrix-current.json so CI can upload them on failure.
matrix-check:
	$(GO) run ./cmd/tampbench -check-matrix BENCH_matrix.json -matrix-scale smoke -matrix-fresh matrix-current.json

# Static analysis beyond go vet. The container has no network, so the binary
# must already be on PATH (CI installs the pinned version; locally:
#   go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
# on a networked machine).
STATICCHECK_VERSION ?= 2025.1
staticcheck:
	@command -v staticcheck >/dev/null 2>&1 || { \
		echo "staticcheck not found; install with:"; \
		echo "  go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)"; \
		exit 1; }
	staticcheck ./...

fmt:
	gofmt -l -w .

# Like fmt but read-only: lists unformatted files and exits non-zero if any
# exist, so CI can gate on formatting without rewriting the tree.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The benchmark harness (perfbench/) is its own Go module that replaces this
# one with ../, so the root ./... never compiles it. Vet and test it in its
# own directory, so an API change that breaks the benchmark fails here.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The local mirror of the blocking CI jobs: everything here must pass before
# a push (the race, perfcheck, and chaos jobs run in CI too, split out for
# wall-clock; run them directly when touching concurrency or the NN kernels).
ci: build vet fmt-check test perfbench
