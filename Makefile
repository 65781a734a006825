GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test test-invariants vet lint lint-json race check bench bench-smoke fuzz-smoke robustness-smoke daemon-smoke perfbench-test golden

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-invariants re-runs the suite with the runtime assertion layer
# (internal/invariant) compiled in: probability/entropy/trust invariants
# panic instead of silently corrupting results.
test-invariants:
	$(GO) test -tags invariants ./...

# vet runs the stock analyzers, plus the shadow checker when its vettool
# is installed (go.dev/x/tools/go/analysis/passes/shadow) — the gate skips
# it gracefully on machines without it rather than requiring a download.
vet:
	$(GO) vet ./...
	@if command -v shadow >/dev/null 2>&1; then \
		echo "$(GO) vet -vettool=$$(command -v shadow) ./..."; \
		$(GO) vet -vettool=$$(command -v shadow) ./...; \
	else \
		echo "shadow vettool not installed; skipping (go install golang.org/x/tools/go/analysis/passes/shadow/cmd/shadow@latest)"; \
	fi

# lint runs corrolint, the repository's domain-aware static-analysis suite
# (8 per-function + 3 interprocedural analyzers; see cmd/corrolint and
# DESIGN.md §13) against the committed baseline. -ratchet makes stale
# baseline entries an error, so the debt file can only shrink.
lint:
	$(GO) run ./cmd/corrolint -baseline lint.baseline -ratchet ./...

# lint-json writes the machine-readable report (CI uploads it as an
# artifact). The leading '-' keeps the target from failing: the report is
# most useful exactly when the lint gate is red.
lint-json:
	-$(GO) run ./cmd/corrolint -json -baseline lint.baseline ./... > corrolint.json

# The race target covers internal/core — the parallel ∆H ranker, the sharded
# stream's worker pool, and the fault-injection suite (worker panics,
# mid-batch cancellation, filesystem faults) — plus internal/fault itself,
# the engine runtime, the serving layer's admission/drain/soak battery,
# and the root package's per-method observer and mid-run-cancellation
# tests; the equivalence and differential tests force the concurrent paths
# even on one CPU.
race:
	$(GO) test -race ./internal/core/... ./internal/fault/... ./internal/engine/... ./internal/serve/... ./internal/pipeline/...
	$(GO) test -race -run 'TestObserverRoundCount|TestCancellationPerMethod|TestPreCancelledContext' .
	# The lazy-PQ ranking suite once more with -count=2: the second run
	# re-ranks through warm pair/key caches, racing the cache maintenance
	# paths that a single cold run never revisits.
	$(GO) test -race -count=2 -run 'TestLazyPQEquivalence|TestLazyPQDeterminism|TestEngineMatchesReference' ./internal/core

# golden regenerates the differential-test fixtures under testdata/golden
# and the corrolint analyzer goldens — run it after a deliberate
# output-format or numeric change, then review the diff.
golden:
	$(GO) test -run TestGoldenDifferential -update .
	$(GO) test -run TestAnalyzerGolden -update ./internal/lint

# check is the CI gate: compile, static checks (vet + corrolint), the full
# test suite with and without runtime invariants, and the race detector.
check: build vet lint test test-invariants race

# bench runs the core/score/entropy/truth/pipeline benchmarks and
# refreshes BENCH_5.json (see scripts/bench.sh).
bench:
	sh scripts/bench.sh

# bench-smoke compiles and single-steps every benchmark (-benchtime=1x,
# -short skips the 200k-fact worlds): it proves the benchmarks still run —
# a broken world builder or a renamed headline benchmark fails CI instead
# of being discovered at the next BENCH_N refresh. No timing is recorded.
bench-smoke:
	$(GO) test -run='^$$' -bench . -benchtime=1x -benchmem -short ./internal/core ./internal/score ./internal/entropy ./internal/truth ./internal/pipeline

# fuzz-smoke gives every fuzz target a short budget (FUZZTIME each) — enough
# to catch regressions in the parsers and normalizers without tying up CI.
# FuzzRestore's workers spend a 10s budget minimizing the new inputs they
# find (up to 60s each by default) and run little beyond the seeds (82
# execs in 10s on a 2-vCPU host); with minimization capped they run ~700
# execs a second.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseVote -fuzztime=$(FUZZTIME) ./internal/truth
	$(GO) test -run='^$$' -fuzz=FuzzParseLabel -fuzztime=$(FUZZTIME) ./internal/truth
	$(GO) test -run='^$$' -fuzz=FuzzReadCSV -fuzztime=$(FUZZTIME) ./internal/truth
	$(GO) test -run='^$$' -fuzz=FuzzReadJSON -fuzztime=$(FUZZTIME) ./internal/truth
	$(GO) test -run='^$$' -fuzz=FuzzNormalizeAddress -fuzztime=$(FUZZTIME) ./internal/dedup
	$(GO) test -run='^$$' -fuzz=FuzzSimilarity -fuzztime=$(FUZZTIME) ./internal/dedup
	$(GO) test -run='^$$' -fuzz=FuzzIntern -fuzztime=$(FUZZTIME) ./internal/truth
	$(GO) test -run='^$$' -fuzz=FuzzCheckpoint -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzRestore -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzScenarioConfig -fuzztime=$(FUZZTIME) ./internal/synth
	$(GO) test -run='^$$' -fuzz=FuzzQueryParams -fuzztime=$(FUZZTIME) ./internal/serve

# robustness-smoke runs the accuracy-under-attack floors on the quick grid
# (seconds): every registered method plus the decayed/undecayed stream over
# x% adversarial sources × y batches, with deterministic floors that fail
# when a change degrades behavior under the attack scenarios (see
# internal/experiments/robust_test.go and DESIGN.md §14).
robustness-smoke:
	$(GO) test -run='TestRobustness|TestColluder|TestMetamorphic' -count=1 ./internal/experiments ./internal/depend ./internal/synth

# daemon-smoke boots the real corrod binary on an ephemeral port, bursts a
# seeded loadgen scenario through the admission queue, SIGKILLs it and
# asserts the restart resumes every acknowledged batch from the base
# checkpoint plus its log, then SIGTERMs it and asserts a clean drain and
# restart — the serving lifecycle of DESIGN.md §15 rehearsed end to end
# (see scripts/daemon_smoke.sh).
daemon-smoke:
	sh scripts/daemon_smoke.sh

# perfbench-test vets and tests the benchmark program. perfbench is its own
# module (replace corroborate => ../), so the root ./... never builds it;
# this catches a change to an API it calls before the benchmark runs.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
