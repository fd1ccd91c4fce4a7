#!/bin/sh
# Record the repository's performance snapshot (BENCH_core.json): every
# perfbench workload on seeds 1-10, fig9-8p traced on seeds 1-10, and ten
# samples of the engine and Bloom micro-benchmarks, summarized as median,
# quartiles and sample count, with the host fingerprint and the commit
# ("-dirty" when tracked files differ from it).
# scripts/perfdiff.sh compares two snapshots; both must come from one host,
# back to back, since this host's speed drifts between sessions.
#
# Usage: scripts/perfsnap.sh OUT
#
# Workload names and the per-run budget come from BENCHMARK.json. One run
# takes run_seconds plus setup, so a snapshot takes about 20-25 minutes.
set -eu

if [ "$#" -ne 1 ]; then
    echo "usage: scripts/perfsnap.sh OUT" >&2
    exit 2
fi
case $1 in
/*) out=$1 ;;
*) out=$PWD/$1 ;;
esac
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

secs=$(jq -r '.run_seconds' BENCHMARK.json)
workloads=$(jq -r '.workloads[].name' BENCHMARK.json)
seeds="1 2 3 4 5 6 7 8 9 10"

# run WORKLOAD SEED TRACE appends one {workload, trace, info, result}
# line to runs.ndjson: perfbench prints its info line, then its result.
run() {
    python3 perfbench/run.py --workload "$1" --seed "$2" --seconds "$secs" --trace "$3" >"$tmp/run.out"
    jq -c -s --arg w "$1" --argjson t "$3" \
        '{workload: $w, trace: $t, info: .[-2].info, result: .[-1]}' "$tmp/run.out" >>"$tmp/runs.ndjson"
}

# micro appends one sample of each micro-benchmark that guards the engine
# and signature hot loops to micro.txt.
micro() {
    go test -run '^$' -bench '^BenchmarkEngineSchedule$' -benchmem -count 1 ./internal/sim >>"$tmp/micro.txt"
    go test -run '^$' -bench '^BenchmarkBloom(Intersect|Union)$' -benchmem -count 1 ./internal/sig >>"$tmp/micro.txt"
}

# One round per seed takes every kind of sample, so a drift in host speed
# over the session widens every metric's IQR alike. (Ten micro samples
# taken in one burst agree with each other to a few percent, yet two
# bursts twenty minutes apart differed by 15%.)
for seed in $seeds; do
    echo "perfsnap: seed $seed" >&2
    for w in $workloads; do
        run "$w" "$seed" 0
    done
    run fig9-8p "$seed" 1
    micro
done

jq -n -S \
    --arg commit "$(git describe --always --dirty --abbrev=40)" \
    --arg at "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    --argjson secs "$secs" \
    --slurpfile runs "$tmp/runs.ndjson" \
    --rawfile micro "$tmp/micro.txt" '
# Quartiles as perfbench computes them (Python statistics.quantiles,
# exclusive method), so a snapshot IQR means what a perfbench IQR means.
def q($s; $j):
  ($s | length) as $n | ($j * ($n + 1) / 4) as $pos | ($pos | floor) as $i |
  if $n == 1 or $i < 1 then $s[0]
  elif $i >= $n then $s[$n - 1]
  else $s[$i - 1] + ($pos - $i) * ($s[$i] - $s[$i - 1]) end;
def summary:
  sort as $s | ($s | length) as $n |
  {n: $n, q1: q($s; 1), q3: q($s; 3),
   median: (if $n % 2 == 1 then $s[($n - 1) / 2]
            else ($s[$n / 2 - 1] + $s[$n / 2]) / 2 end)};
def counts:
  {runs: length, attempted: (map(.result.attempted) | add),
   failed: (map(.result.failed) | add), correct: all(.result.correct)};
def metrics($names):
  . as $rs | reduce $names[] as $m ({};
    .[$m] = ($rs | map(.result.metrics[$m].value) | summary)
            + {unit: $rs[0].result.metrics[$m].unit});

($runs | map(.info.host) | unique) as $hosts |
if ($hosts | length) != 1 then error("runs report more than one host: \($hosts)") else . end |
{
  schema: "perfsnap/1",
  commit: $commit, generated_at: $at, host: $hosts[0],
  run_seconds: $secs, seeds: ($runs | map(.info.seed) | unique),
  workloads: ($runs | map(select(.trace == 0)) | group_by(.workload) |
    map({key: .[0].workload,
         value: (counts + {metrics: metrics(.[0].result.metrics | keys)})}) |
    from_entries),
  traced: ($runs | map(select(.trace == 1)) |
    counts + {workload: .[0].workload,
              metrics: metrics(["core.warm_over_cold", "runtime.alloc_mb_per_minstr"])}),
  micro: ($micro | split("\n") |
    map(capture("^(?<name>Benchmark[A-Za-z0-9_]+)(-[0-9]+)?\\s+[0-9]+\\s+(?<ns>[0-9.e+]+) ns/op.*\\s(?<allocs>[0-9]+) allocs/op")) |
    group_by(.name) |
    map({key: .[0].name,
         value: {ns_per_op: (map(.ns | tonumber) | summary),
                 allocs_per_op: (map(.allocs | tonumber) | summary)}}) |
    from_entries),
  successors: {
    "fig9 ns_per_op": "workloads.fig9-8p.metrics.cpu_ms_per_op",
    "fig9_warm ns_per_op": "workloads.fig9-8p.metrics.cpu_ms_per_op",
    "fig9 allocs_per_op": "traced.metrics.runtime.alloc_mb_per_minstr",
    "fig9_warm allocs_per_op": "traced.metrics.runtime.alloc_mb_per_minstr",
    "fig9 warm<=cold": "traced.metrics.core.warm_over_cold",
    "scaling_256_wall_ms": "workloads.scale-256p.metrics.cpu_ms_per_op",
    "BenchmarkEngineSchedule": "micro.BenchmarkEngineSchedule",
    "BenchmarkBloomIntersect": "micro.BenchmarkBloomIntersect",
    "BenchmarkBloomUnion": "micro.BenchmarkBloomUnion"
  }
}' >"$tmp/snap.json"
mv "$tmp/snap.json" "$out"
echo "perfsnap: wrote $out" >&2
