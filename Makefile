# Development entry points. `make check` is the gate every PR must pass;
# it is what scripts/check.sh runs in CI.

GO ?= go

.PHONY: check check-fast lint fmt vet build test race bench perfsnap perfdiff golden clean serve profile

check: ## full PR gate: format, vet, simlint, build, tests, fuzz-corpus smoke, race on the sweep fan-out + torture matrix
	./scripts/check.sh

# The gate minus the race-detector passes — quick local iteration.
check-fast:
	./scripts/check.sh -fast

# Static invariant passes: the syntactic tier (determinism, poolhygiene,
# hotpathalloc, statsnapshot; DESIGN.md §9) plus the flow-sensitive tier
# (poolflow, hashneutral, waiterpair; DESIGN.md §14) and the
# stale-suppression sweep. scripts/hotpath_escape.sh cross-checks
# hotpathalloc suppressions against the compiler's escape analysis;
# `go run ./cmd/simlint -json ./...` emits machine-readable findings.
lint:
	$(GO) run ./cmd/simlint ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# experiments/experiments.go fans simulations out across goroutines; run it
# under the race detector explicitly, along with the sweepd service soak
# (warm pool, bounded queue, shutdown drains) and its subprocess tests.
race:
	$(GO) test -race ./experiments
	$(GO) test -race -count=1 ./internal/sweepsrv ./cmd/sweepd

# Run the sweep service locally (see EXPERIMENTS.md for the curl recipes).
serve:
	$(GO) run ./cmd/sweepd -addr 127.0.0.1:8356

# Headline + micro benchmarks (human-readable).
bench:
	$(GO) test -run xxx -bench 'Fig9' -benchmem -benchtime 1x .
	$(GO) test -run xxx -bench . -benchmem ./internal/sim ./internal/sig ./internal/chunk

# The performance record: every perfbench workload on seeds 1-10, fig9-8p
# traced, and the engine and Bloom micros at -count 10 (about 20-25
# minutes), written to BENCH_core.json. Write BENCH_core_baseline.json
# with scripts/perfsnap.sh in a checkout of the parent commit, back to
# back with this, on the same host.
perfsnap:
	./scripts/perfsnap.sh BENCH_core.json

# The perf gate on the checked-in pair (scripts/check.sh runs it too):
# fails when a median worsens past max(its bound, the baseline's
# IQR/median), a failed share rises, or warm/cold exceeds 1.05.
perfdiff:
	./scripts/perfdiff.sh BENCH_core_baseline.json BENCH_core.json

# CPU-profile the headline sweep: one cold Fig9 pass under -cpuprofile,
# then the flat top-10. EXPERIMENTS.md ("Profiling the hot path") holds
# the committed table; refresh it from this output after hot-path work.
# PROFILE_BENCH=BenchmarkFig9Warm profiles the warm-reuse mode instead.
# The test binary and profile go to a fresh temp directory, printed at the
# end, never to the repository root.
PROFILE_BENCH ?= BenchmarkFig9
profile:
	@dir=$$(mktemp -d) && \
	$(GO) test -run '^$$' -bench '$(PROFILE_BENCH)$$' -benchtime 1x -cpuprofile $$dir/cpu.pprof -o $$dir/bulksc.test . && \
	$(GO) tool pprof -top -nodecount=10 $$dir/bulksc.test $$dir/cpu.pprof && \
	echo "profile: $$dir/cpu.pprof (binary $$dir/bulksc.test)"

# Regenerate the golden determinism table — ONLY after a deliberate
# behavioral change; performance-only PRs must leave it untouched.
golden:
	$(GO) test ./internal/core -run TestGoldenDeterminism -update-golden

clean:
	rm -f bulksc.test cpu.pprof mem.pprof trace.out
