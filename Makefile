GO ?= go

.PHONY: build test vet lint test-analysis race check loc bench bench-sparse bench-dual bench-benders serve-test bench-serve bench-fleet bench-hotpath

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# rentlint is the in-tree solver-aware analysis suite (see cmd/rentlint):
# all ten analyzers over the whole module, including staleignore, which
# audits the //lint:ignore directives themselves. It exits 1 on any
# unsuppressed finding, failing the check gate.
lint:
	$(GO) run ./cmd/rentlint ./...

# The analyzer suite re-type-checks the module and the corpus from source,
# which is the slowest test surface in the repo; the explicit -timeout is a
# budget, so a CFG or fixpoint regression that loops shows up as a timeout
# here instead of hanging the whole test job.
test-analysis:
	$(GO) test -timeout 120s ./internal/analysis/... ./cmd/rentlint/...

# The parallel branch-and-bound solver shares state across workers; always
# race-check it (and everything else) before shipping.
race:
	$(GO) test -race ./...

check: vet lint test-analysis race

# The non-test Go line count of the committed tree (testdata excluded): the
# figure the ROADMAP line-count gates are stated in.
loc:
	@git ls-files '*.go' | grep -v '_test.go$$' | grep -v /testdata/ | xargs cat | wc -l

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# Smoke-run the sparse-core benchmarks (the LP solve, which enforces the
# pivot and pricing-sweep pins of BENCH_sparse.json itself, plus model-build
# allocations).
bench-sparse:
	$(GO) test -run '^$$' -bench 'BenchmarkSparseVsDenseSRRP|BenchmarkSRRPModelBuild' -benchtime 1x .

# Smoke-run the dual-simplex warm re-solve benchmark (branching children of
# the BENCH_sparse instance, dual vs cold); baselines in BENCH_dual.json. The
# benchmark itself enforces the >= 2x iteration reduction acceptance
# threshold.
bench-dual:
	$(GO) test -run '^$$' -bench 'BenchmarkDualVsColdSRRP' -benchtime 1x .

# Smoke-run the parallel nested L-shaped benchmark (8-stage/branch-3 tree,
# memo + warehouse + dual-warm re-solves); baselines in BENCH_benders.json.
# The benchmark enforces the vertex-solve pin and the 1e-6 relative bound
# agreement itself.
bench-benders:
	$(GO) test -run '^$$' -bench 'BenchmarkBendersNestedParallel' -benchtime 1x .

# The rentpland daemon stack under the race detector: handler and
# reentrancy suites (bit-identical concurrent-vs-serial objectives, zero
# cross-tenant bleed) plus the loadtest smoke fleet.
serve-test:
	$(GO) test -race ./internal/serve/... ./cmd/rentpland/

# The rentpland load benchmark: >= 1000 concurrent synthetic tenant plan
# requests through the in-process daemon, recording p50/p99 latency and
# plans/sec into BENCH_serve.json.
bench-serve:
	BENCH_SERVE_OUT=$(CURDIR)/BENCH_serve.json $(GO) test -run '^$$' -bench 'BenchmarkServeLoad' -benchtime 1x ./internal/serve/loadtest/

# The fleet simulator benchmark: a 100k-ASP population over 16 week-long
# market epochs, event-driven sharded core vs the naive slot-polling walk.
# The benchmark enforces the >= 10x ASP-slots/sec speedup acceptance gate
# and shard-count {1,4,8} bit-identity itself; p50 epoch latency and
# ASP-slots/sec are recorded into BENCH_fleet.json.
bench-fleet:
	BENCH_FLEET_OUT=$(CURDIR)/BENCH_fleet.json $(GO) test -run '^$$' -bench 'BenchmarkFleet' -benchtime 1x .

# Smoke-run the paper-reproduction hot-path benchmarks with allocation
# counts: the tree DP on the largest reproduction tree and on the fleet
# planner's 3-stage/branch-3 tree (serially and from every GOMAXPROCS
# goroutine, sharing the pooled workspaces), one 24-slot rolling-horizon
# day of SRRP re-plans at the reproduction's 5/4 tree shape, and the ARIMA
# forecast-horizon study.
bench-hotpath:
	$(GO) test -run '^$$' -bench 'BenchmarkTreeDP(Large|Small|SmallParallel)$$|BenchmarkRollingReplan$$|BenchmarkExtensionForecastHorizons$$' -benchmem -benchtime 1x .
