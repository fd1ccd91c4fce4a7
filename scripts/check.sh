#!/bin/sh
# The PR gate: formatting, static checks (go vet + the simlint invariant
# passes), build, full tests, a fuzz-corpus smoke over the signature,
# line-set, sharer-set, engine, history-reader, offline-checker,
# sweepd-request and sweep-flag targets, one iteration of the engine,
# L1-probe, history codec, SC-witness and determinism-hash
# micro-benchmarks, the perfbench workloads in short mode, the perf gate
# (scripts/perfdiff.sh on the checked-in snapshot pair
# BENCH_core_baseline.json → BENCH_core.json, both written by
# scripts/perfsnap.sh on one host, after proving that perfdiff rejects
# three doctored copies of the snapshot), and the race detector over
# both the parallel sweep fan-out in experiments/ and the litmus × model
# × fault torture matrix.
# Run from the repository root (or via `make check`).
#
# Usage: scripts/check.sh [-fast]
#
#   -fast  skip the race-detector passes (the slowest stages); everything
#          else — including simlint — still runs. For quick local
#          iteration; CI runs the full gate.
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
go test -run 'Fuzz' ./internal/sig ./internal/lineset ./internal/sharerset ./internal/sim ./internal/history ./internal/history/gk ./internal/sweepsrv ./cmd/sweep

# One iteration of each engine, L1-probe, history codec, SC-witness and
# determinism-hash micro-benchmark, so their setup (16k live events, 256
# Table-2 L1s, two exported radix histories, random 4096-word witness
# histories, a collected radix run) cannot rot unnoticed.
echo "== engine / cache / history / witness / hash micro-benchmark smoke =="
go test -run xxx -bench 'Engine|L1Probe|History|Witness|DeterminismHash' -benchtime 1x ./internal/sim ./internal/cache ./internal/history ./internal/sccheck ./internal/core

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

# The benchmark's own tests: every perfbench workload in short mode,
# including sweepd-open's open-loop generator against an in-process
# sweepd (real HTTP, warm worker pool, content-addressed cache) with its
# cache-hit and server-counter reconciliations.
echo "== perfbench workloads (short mode) =="
(cd perfbench && go test ./...)

# The perf gate's own negative check, in the pattern of the corrupted
# history above: a copy of the snapshot with warm/cold at 1.0 must pass
# against itself, and each of three doctored copies of it must fail —
# one median just past its bound, warm/cold at 1.06, one extra failed
# operation.
echo "== perfdiff rejects doctored snapshots =="
jq '.traced.metrics["core.warm_over_cold"].median = 1' BENCH_core.json >"$tracedir/ok.json"
./scripts/perfdiff.sh "$tracedir/ok.json" "$tracedir/ok.json" >/dev/null
bound=$(jq '.end_to_end[] | select(.name == "cpu_ms_per_op") | .bound' BENCHMARK.json)
jq --argjson b "$bound" '.workloads["fig9-8p"].metrics.cpu_ms_per_op |=
    (.median *= (1 + ([$b, (.q3 - .q1) / .median] | max)) * 1.01)' \
    "$tracedir/ok.json" >"$tracedir/slow.json"
jq '.traced.metrics["core.warm_over_cold"].median = 1.06' "$tracedir/ok.json" >"$tracedir/warm.json"
jq '.workloads["sweepd-open"].failed += 1' "$tracedir/ok.json" >"$tracedir/failed.json"
for doctored in slow warm failed; do
    status=0
    ./scripts/perfdiff.sh "$tracedir/ok.json" "$tracedir/$doctored.json" >/dev/null 2>&1 || status=$?
    if [ "$status" != 1 ]; then
        echo "perfdiff exited $status on the doctored snapshot $doctored.json, want 1" >&2
        exit 1
    fi
done

echo "== perfdiff BENCH_core_baseline.json -> BENCH_core.json =="
./scripts/perfdiff.sh BENCH_core_baseline.json BENCH_core.json

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
# against cold goldens) with its client/server counter reconciliation,
# the graceful-shutdown drains and the SIGTERM subprocess test.
echo "== go test -race ./internal/sweepsrv ./cmd/sweepd (service soak) =="
go test -race -count=1 ./internal/sweepsrv ./cmd/sweepd

echo "== go test -race -short ./internal/... =="
go test -race -short ./internal/...

echo "check: all green"
