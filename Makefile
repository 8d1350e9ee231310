# Developer / CI entry points. `make ci` is the gate: formatting, vet,
# build, the full test suite under the race detector, and a one-shot
# run of the detection benchmarks so they cannot rot.

GO ?= go

.PHONY: ci fmt vet vet-metrics build test test-stats test-faults test-churn test-telemetry test-kernels test-stream test-sparse test-cluster test-probe test-alloc bench-kernels bench-stream bench-sparse bench-cluster bench-localize bench-alloc bench-smoke bench pprof-stream

ci: fmt vet vet-metrics build test test-stats test-faults test-churn test-telemetry test-kernels test-stream test-sparse test-cluster test-probe test-alloc bench-kernels bench-stream bench-sparse bench-cluster bench-localize bench-alloc bench-smoke

fmt:
	@files="$$(gofmt -l .)"; \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# The median behind every anomaly index must stay exact and within its
# bound on ties, adversarial orders and NaN-laden input: run the stats
# property, fuzz-seed and worst-case selection tests twice under the
# race detector.
test-stats:
	$(GO) test -race -count=2 ./internal/stats/

# The collection-plane fault machinery (deadlines, retries, quarantine,
# counter-reset detection) is concurrency-heavy and timing-sensitive:
# run its packages twice under the race detector to shake out
# scheduling-dependent bugs a single pass can miss.
test-faults:
	$(GO) test -race -count=2 -timeout 120s ./internal/collector/ ./internal/openflow/

# The rule-churn subsystem mutates the baseline (epoch log, incremental
# FCM, rank-one factor updates) while detection may be running: run its
# package and the matrix factor-update machinery twice under the race
# detector.
test-churn:
	$(GO) test -race -count=2 -timeout 120s ./internal/churn/ ./internal/matrix/

# The telemetry core is lock-free on the hot path and scraped
# concurrently with detection: run it and the packages that record into
# it twice under the race detector.
test-telemetry:
	$(GO) test -race -count=2 -timeout 120s ./internal/telemetry/ ./cmd/focesd/

# The parallel kernel layer (blocked Cholesky, parallel Gram, the
# persistent sliced-detect worker pool, batched solves) is exercised by
# determinism-sensitive tests: run them twice under the race detector.
test-kernels:
	$(GO) test -race -count=2 -timeout 180s -run 'Kernel' ./internal/matrix/ ./internal/core/

# The streaming ingestion pipeline (window assembler, adaptive sampler,
# System.Serve, the focesd pump) is push-driven and channel-heavy: run
# its tests twice under the race detector, including the
# polled-vs-streamed equivalence gates.
test-stream:
	$(GO) test -race -count=2 -timeout 180s -run 'Assembler|Sampler|Serve|Stream|PollSnapshots|PollCancelled' ./internal/collector/ ./cmd/focesd/ .

# The sparse direct solver (AMD ordering, symbolic analysis, supernodal
# factorization, sparse rank-one update/downdate) and the hardened
# dense factor-maintenance path share poison/fallback semantics with
# the churn manager: run their regression, property and fuzz-seed tests
# twice under the race detector, together with the core tests that pin
# density-picked slice factors and the prepared missing-switch path to
# their dense and cold references.
test-sparse:
	$(GO) test -race -count=2 -timeout 180s -run 'Sparse|Update|Downdate|Column|AMD|SymGram|Symbolic|PreparedLS|RankOneRepair|DetectMissing' ./internal/matrix/ ./internal/churn/ ./internal/experiment/ ./internal/core/

# The sharded multi-node detection cluster is membership-churn-heavy
# (node join mid-epoch, node death mid-window with shard requeue,
# coordinator restart, total-capacity fallback): run its package, the
# shared framing layer and the replica-replay machinery twice under the
# race detector.
test-cluster:
	$(GO) test -race -count=2 -timeout 180s ./internal/cluster/ ./internal/wire/ ./internal/churn/

# The active-probe localization subsystem shares the baseline read lock
# with concurrent detection: run the probe package, the localization
# glue and the report serialization golden tests twice under the race
# detector.
test-probe:
	$(GO) test -race -count=2 -timeout 180s ./internal/probe/
	$(GO) test -race -count=2 -timeout 180s -run 'Localiz|ReportMarshal|RunEvent|StreamReportShares|DrawAttack' . ./internal/experiment/

# Allocation regression tests: AllocsPerRun budgets on the streaming
# hot path (Serve allocs/window, wire frame round trip) plus the pooled
# window release contract. Run WITHOUT -race — the race detector's
# instrumentation inflates MemStats allocation counts, so the budget
# tests carry a !race build tag and would silently vanish under it. The
# release-contract tests additionally ride along under `make
# test-faults` with -race.
test-alloc:
	$(GO) test -timeout 180s -run 'Alloc|WindowRelease|DoubleRelease|FrameRoundTrip' . ./internal/wire/ ./internal/collector/

# Bench gate for the zero-allocation steady state: the alloc experiment
# must keep pooled-path verdicts byte-identical to the polled map-era
# path under attack/silence/churn/reset events, hold steady-state
# allocations within the per-window budget, and stay within 3x of the
# archived streaming p99 latency (results/alloc.json).
bench-alloc:
	$(GO) run ./cmd/focesbench -exp alloc -check
	@test -f results/alloc.json || { echo "bench-alloc: results/alloc.json missing"; exit 1; }

# Archive a heap profile of the warm streaming pipeline and print the
# top allocation sites (results/stream_heap.pprof). Not part of ci.
pprof-stream:
	$(GO) test -run '^$$' -bench ServeSteadyState -benchtime 200x -memprofile results/stream_heap.pprof .
	$(GO) tool pprof -top -nodecount 15 results/stream_heap.pprof

# Bench gate for active-probe localization: every (topology, policy,
# anomaly class) arm must stay within the probe budget
# ceil(log2(|suspect rules|)) + 2 and name the attacked rule in the
# top-3 culprits for >= 90% of detected runs (results/localize.json).
bench-localize:
	$(GO) run ./cmd/focesbench -exp localize -check
	@test -f results/localize.json || { echo "bench-localize: results/localize.json missing"; exit 1; }

# Bench gate for the detection cluster: the cluster experiment must keep
# every distributed report byte-identical to the single-process path
# (including across a node killed mid-window), ship at least one
# incremental delta and one post-refactor snapshot, finish every
# distributed window within the collection interval, and — on hosts with
# GOMAXPROCS >= 4 — beat one node by >= 2x throughput
# (results/cluster.json).
bench-cluster:
	$(GO) run ./cmd/focesbench -exp cluster -check
	@test -f results/cluster.json || { echo "bench-cluster: results/cluster.json missing"; exit 1; }

# Bench gate for the sparse solver: the sparse experiment must show the
# dense Gram exceeding the memory budget while the sparse path stays
# within it, keep sparse and dense verdicts identical with residual
# deltas <= 1e-12 on every evaluation topology, and not regress the
# sparse prepare past 1.25x the archived run (results/sparse.json).
bench-sparse:
	$(GO) run ./cmd/focesbench -exp sparse -check
	@test -f results/sparse.json || { echo "bench-sparse: results/sparse.json missing"; exit 1; }

# Bench gate for streaming ingestion: the stream experiment must keep
# the streamed verdicts byte-identical to the polled path, sustain the
# ingest-rate floor with bounded queues, and stay within 3x of the
# archived p99 ingest-to-verdict latency (results/stream.json).
bench-stream:
	$(GO) run ./cmd/focesbench -exp stream -check
	@test -f results/stream.json || { echo "bench-stream: results/stream.json missing"; exit 1; }

# Bench smoke for the kernel layer: run the kernels experiment on a
# small fabric with -check (fails if the parallel kernels regress past
# serial x1.25 or any equivalence check trips) and require the
# kernels.json trajectory to land.
bench-kernels:
	$(GO) run ./cmd/focesbench -exp kernels -topo fattree4 -runs 3 -check
	@test -f results/kernels.json || { echo "bench-kernels: results/kernels.json missing"; exit 1; }

# Metric-hygiene lint: the telemetry hot path must not format strings
# (fmt is banned from the package outright), and every metric name
# minted in metrics.go must be documented in README.md's catalogue.
vet-metrics:
	@if grep -n 'fmt\.' internal/telemetry/*.go | grep -v _test.go; then \
		echo "vet-metrics: fmt usage in internal/telemetry (hot paths must not format)"; exit 1; \
	fi
	@missing=0; \
	for name in $$(grep -oE '"foces_[a-z_]+"' internal/telemetry/metrics.go | tr -d '"' | sort -u); do \
		if ! grep -q "$$name" README.md; then \
			echo "vet-metrics: $$name not documented in README.md"; missing=1; \
		fi; \
	done; \
	if [ "$$missing" -ne 0 ]; then exit 1; fi

# Compile-and-run-once smoke over every Detect* benchmark, including
# the cold-vs-prepared and sequential-vs-parallel engine comparisons,
# and over the median selection arms (random, quiet, ties, killers).
bench-smoke:
	$(GO) test -run '^$$' -bench Detect -benchtime 1x .
	$(GO) test -run '^$$' -bench MedianInto -benchtime 1x ./internal/stats/

# Full benchmark sweep (slow; not part of ci).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .
