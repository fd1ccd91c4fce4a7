#!/bin/sh
# Compare two performance snapshots written by scripts/perfsnap.sh and fail
# on a regression.
#
# Usage: scripts/perfdiff.sh BASE CUR
#
# A metric fails when its median in CUR is worse than in BASE by more than
# max(its bound, BASE's IQR/median for it). The bounds:
#
#   end-to-end metrics, every workload    BENCHMARK.json's bound
#   runtime.alloc_mb_per_minstr (traced)  25%
#   micro-benchmarks                      15% on ns/op, 25% on allocs/op
#
# Also failing: a rise in any workload's failed-operation share, a CUR
# output that is not correct, core.warm_over_cold's median in CUR above
# 1.05 (a warm sweep reuses every arena, so it must not run slower than
# cold construction), and a workload, metric or micro of BASE missing
# from CUR.
#
# Exit status: 0 within bounds, 1 regression, 2 usage error, unreadable
# snapshot, or snapshots from different hosts (their timings do not
# compare).
set -eu

if [ "$#" -ne 2 ]; then
    echo "usage: scripts/perfdiff.sh BASE CUR" >&2
    exit 2
fi
base=$1
cur=$2
bench="$(dirname "$0")/../BENCHMARK.json"
for f in "$base" "$cur" "$bench"; do
    if ! jq -e 'type == "object"' "$f" >/dev/null 2>&1; then
        echo "perfdiff: not a JSON object: $f" >&2
        exit 2
    fi
done

if ! jq -e -n --slurpfile b "$base" --slurpfile c "$cur" \
    '$b[0].host != null and $b[0].host == $c[0].host' >/dev/null; then
    echo "perfdiff: host fingerprints differ: $(jq -c .host "$base") vs $(jq -c .host "$cur")" >&2
    exit 2
fi

report=$(jq -n -r --slurpfile b "$base" --slurpfile c "$cur" --slurpfile bench "$bench" '
def pct: . * 1000 | round / 10 | tostring + "%";
# cmp(name; base summary; cur summary; bound; better) checks one median.
def cmp($name; $b; $c; $bound; $better):
  if $c == null then "FAIL \($name): missing from current"
  else
    ([$bound, (if $b.median != 0 then ($b.q3 - $b.q1) / $b.median else 0 end)] | max) as $lim |
    (if $b.median != 0 then ($c.median - $b.median) / $b.median
     elif $c.median == 0 then 0 else 1e9 end) as $d |
    (if $better == "higher" then -$d else $d end) as $worse |
    "\(if $worse > $lim then "FAIL" else "ok  " end) \($name): \($b.median) -> \($c.median) (\($d | pct), limit \($lim | pct))"
  end;
# share(name; base counts; cur counts) fails on a rise in failed share.
def share($name; $b; $c):
  if $c == null then "FAIL \($name): missing from current"
  else
    "\(if $c.failed * $b.attempted > $b.failed * $c.attempted or ($c.correct | not)
       then "FAIL" else "ok  " end) \($name) failed: \($b.failed)/\($b.attempted) -> \($c.failed)/\($c.attempted), correct \($c.correct)"
  end;

$b[0] as $B | $c[0] as $C |
($bench[0].end_to_end | map({key: .name, value: .}) | from_entries) as $e2e |
"perfdiff: \($B.commit[0:12]) -> \($C.commit[0:12]) on \($C.host | tostring)",
($B.workloads | keys[] as $w |
  share($w; $B.workloads[$w]; $C.workloads[$w]),
  ($B.workloads[$w].metrics | keys[] | select($e2e[.]) as $m |
    cmp("\($w) \($m)"; $B.workloads[$w].metrics[$m]; $C.workloads[$w].metrics[$m];
        $e2e[$m].bound; $e2e[$m].better))),
share("traced \($B.traced.workload)"; $B.traced; $C.traced),
cmp("traced runtime.alloc_mb_per_minstr"; $B.traced.metrics["runtime.alloc_mb_per_minstr"];
    $C.traced.metrics["runtime.alloc_mb_per_minstr"]; 0.25; "lower"),
($C.traced.metrics["core.warm_over_cold"].median as $r |
  "\(if $r == null or $r > 1.05 then "FAIL" else "ok  " end) traced core.warm_over_cold: \($r) (limit 1.05)"),
($B.micro | keys[] as $m |
  cmp("\($m) ns/op"; $B.micro[$m].ns_per_op; $C.micro[$m].ns_per_op; 0.15; "lower"),
  cmp("\($m) allocs/op"; $B.micro[$m].allocs_per_op; $C.micro[$m].allocs_per_op; 0.25; "lower"))
')
echo "$report"
if echo "$report" | grep -q '^FAIL'; then
    echo "perfdiff: REGRESSION past bounds" >&2
    exit 1
fi
echo "perfdiff: within bounds"
