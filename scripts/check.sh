#!/bin/sh
# The PR gate: formatting, static checks (go vet + the simlint invariant
# passes), build, full tests, a fuzz-corpus smoke over the signature,
# line-set, sharer-set, engine, history-reader, offline-checker and
# sweepd-request targets, one iteration of the engine and L1-probe
# micro-benchmarks, and the race detector over both the parallel sweep
# fan-out in experiments/ and the litmus × model × fault torture matrix.
# Run from the repository root (or via `make check`).
#
# Usage: scripts/check.sh [-fast]
#
#   -fast  skip the race-detector passes (the slowest stages); everything
#          else — including simlint — still runs. For quick local
#          iteration; CI runs the full gate.
#
# Opt-in perf gate: set PERFDIFF_BASE to a baseline BENCH_core.json to
# compare the checked-in snapshot against it with scripts/perfdiff.sh
# (fails on a >15% ns/op or >25% allocs/op regression in the fig9 sweeps
# or the micro-benchmarks). Off by default because benchmark numbers are
# machine-dependent; run on a quiet box — or use `make perfdiff` — when a
# PR touches performance.
set -eu

cd "$(dirname "$0")/.."

fast=0
for arg in "$@"; do
    case "$arg" in
    -fast) fast=1 ;;
    *)
        echo "usage: scripts/check.sh [-fast]" >&2
        exit 2
        ;;
    esac
done

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

# simlint's exit contract: 0 clean, 1 findings, 2 usage/load error. The
# -json form is the machine-readable artifact (file/line/col/pass/message,
# deterministically ordered); surface it on failure so CI logs carry the
# structured findings alongside the human-readable rerun.
echo "== simlint =="
simlint_json=$(mktemp)
if ! go run ./cmd/simlint -json ./... >"$simlint_json"; then
    echo "simlint findings (JSON):" >&2
    cat "$simlint_json" >&2
    rm -f "$simlint_json"
    exit 1
fi
rm -f "$simlint_json"

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== fuzz smoke (checked-in corpus as regression tests) =="
go test -run 'Fuzz' ./internal/sig ./internal/lineset ./internal/sharerset ./internal/sim ./internal/history ./internal/history/gk ./internal/sweepsrv

# One iteration of each engine and L1-probe micro-benchmark, so their
# setup (16k live events, 256 Table-2 L1s) cannot rot unnoticed.
echo "== engine / cache micro-benchmark smoke =="
go test -run xxx -bench 'Engine|L1Probe' -benchtime 1x ./internal/sim ./internal/cache

echo "== 256-proc scaling smoke =="
go test -run 'TestBigMachineRadixSmoke|TestBigMachineRadixRecycleSmoke' ./internal/core

# End-to-end offline audit: export a real radix history as NDJSON, require
# the out-of-process checker to accept it, then corrupt a single record's
# commit order and require it to object. Exercises sweep -exp trace, the
# history reader, and cmd/scchk's exit discipline in one pass.
echo "== offline SC audit (sweep -exp trace | scchk) =="
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
go run ./cmd/sweep -exp trace -apps radix -work 4000 \
    -trace-out "$tracedir/radix.ndjson" >/dev/null
go run ./cmd/scchk -q "$tracedir/radix.ndjson"
# Zero the first chunk's claimed commit order — a total-order violation.
awk 'done || !/"kind":"chunk"/ { print; next }
     { sub(/"order":[0-9]+/, "\"order\":0"); print; done = 1 }' \
    "$tracedir/radix.ndjson" >"$tracedir/corrupt.ndjson"
if go run ./cmd/scchk -q "$tracedir/corrupt.ndjson"; then
    echo "scchk accepted a corrupted history" >&2
    exit 1
fi

echo "== litmus enumeration smoke (exhaustive, POR) =="
go test -run 'TestForbiddenUnreachable|TestRCExhibitsSB' ./internal/history/explore

# sweepd service smoke: the seeded load harness against an in-process
# server (real HTTP, warm worker pool, content-addressed cache). The
# harness itself fails the run if any request fails, hangs, or the
# client-side and server-side counters disagree.
echo "== sweepd load-test smoke =="
go run ./cmd/sweepd -loadtest -requests 8 -concurrency 2 -work 800 >/dev/null

if [ "${PERFDIFF_BASE:-}" != "" ]; then
    echo "== perfdiff vs $PERFDIFF_BASE =="
    ./scripts/perfdiff.sh "$PERFDIFF_BASE" BENCH_core.json
fi

if [ "$fast" = 1 ]; then
    echo "check: green (-fast: race passes skipped)"
    exit 0
fi

# The experiments package is where simulations fan out across goroutines:
# a fixed pool of workers, each reusing one warm machine, sharing memoized
# workload programs. This pass covers the worker pool, the per-key
# sync.Once program cache, and the mixed warm-vs-cold parity sweep
# (TestWarmReuseMatchesCold) under the race detector.
echo "== go test -race ./experiments (incl. mixed warm sweep) =="
go test -race ./experiments

echo "== litmus torture matrix under -race =="
go test -race -run 'TestLitmusTortureMatrix|TestLitmusTorture64Proc|TestRCRelaxationSurvivesFaults' ./internal/core

# The sweepd service under the race detector WITHOUT -short: includes the
# concurrent mixed-config soak (warm-pool cross-contamination tripwire
# against cold goldens), the graceful-shutdown drains, the SIGTERM
# subprocess test and the full load harness.
echo "== go test -race ./internal/sweepsrv ./cmd/sweepd (service soak) =="
go test -race -count=1 ./internal/sweepsrv ./cmd/sweepd

echo "== go test -race -short ./internal/... =="
go test -race -short ./internal/...

echo "check: all green"
