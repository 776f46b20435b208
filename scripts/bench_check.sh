#!/usr/bin/env bash
# scripts/bench_check.sh — guard against performance regressions.
#
# Reruns a benchmark subset and compares each result against the
# "current" section of a committed perf snapshot (BENCH_PR12.json by
# default). Fails if any shared benchmark regresses by more than
# THRESHOLD percent in ns/op, or allocates more per op than the
# snapshot plus ALLOC_SLACK: ns/op is noisy and gets a tolerance band;
# allocs/op is near-deterministic, but sync.Pool reuse depends on GC
# timing, so pooled benchmarks jitter by an alloc or two around the
# snapshot's min-over-samples — the slack absorbs that jitter while a
# real regression (tens to thousands of allocs) still trips the
# ratchet. When an optimization lowers a benchmark's allocation count,
# re-snapshot to lock in the gain.
#
# Usage: scripts/bench_check.sh [snapshot.json]
#   BENCH=regex      benchmarks to check (default: the BenchmarkAblation
#                    tracked hot-path suite — including the LedgerOn/Off
#                    congested-queue pair — plus the congested
#                    conservative benchmark; fast enough for CI)
#   COUNT=n          samples per bench, min taken (default: 3)
#   THRESHOLD=pct    max allowed ns/op regression (default: 20)
#   ALLOC_SLACK=n    max allowed allocs/op increase (default: 2)
#
# Caveat: ns/op only compares like with like. The committed snapshot
# records one machine's numbers; a much slower runner will trip the
# guard spuriously. The minimum over COUNT samples absorbs scheduler
# noise, and the threshold absorbs machine drift within a hardware
# class — widen THRESHOLD rather than deleting the guard if your CI
# fleet is heterogeneous.
set -euo pipefail
cd "$(dirname "$0")/.."

SNAP="${1:-BENCH_PR12.json}"
BENCH="${BENCH:-BenchmarkAblation|BenchmarkLargeConservativeCongested$}"
COUNT="${COUNT:-3}"
THRESHOLD="${THRESHOLD:-20}"
ALLOC_SLACK="${ALLOC_SLACK:-2}"

command -v jq >/dev/null || { echo "bench_check.sh: jq is required" >&2; exit 1; }
[ -f "$SNAP" ] || { echo "bench_check.sh: snapshot $SNAP not found" >&2; exit 1; }

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
go test -run '^$' -bench "$BENCH" -benchmem -count "$COUNT" . | tee "$raw"

# Minimum ns/op and allocs/op per benchmark across the samples.
awk '
/^Benchmark/ {
  name = $1; sub(/-[0-9]+$/, "", name)
  ns = ""; ac = ""
  for (i = 2; i <= NF; i++) {
    if ($i == "ns/op") ns = $(i-1)
    if ($i == "allocs/op") ac = $(i-1)
  }
  if (ns == "") next
  if (ac == "") ac = "-"
  if (!(name in minNs) || ns+0 < minNs[name]+0) minNs[name] = ns
  if (ac != "-" && (!(name in minAc) || ac+0 < minAc[name]+0)) minAc[name] = ac
}
END {
  for (name in minNs)
    printf "%s %s %s\n", name, minNs[name], (name in minAc) ? minAc[name] : "-"
}
' "$raw" > "$raw.min"

fail=0
checked=0
while read -r name ns ac; do
  ref="$(jq -r --arg n "$name" '.current[$n].ns_per_op // empty' "$SNAP")"
  [ -n "$ref" ] || continue
  checked=$((checked + 1))
  # allowed = ref * (100 + THRESHOLD) / 100, in integer ns
  allowed=$(( (ref * (100 + THRESHOLD)) / 100 ))
  if [ "${ns%.*}" -gt "$allowed" ]; then
    echo "REGRESSION: $name ${ns%.*} ns/op > ${allowed} ns/op (snapshot ${ref} +${THRESHOLD}%)"
    fail=1
  else
    echo "ok: $name ${ns%.*} ns/op (snapshot ${ref}, limit ${allowed})"
  fi
  # Allocation ratchet: the count is near-deterministic (only
  # GC-timing-dependent pool reuse jitters it), so the tolerance is a
  # small absolute slack, not a percentage band.
  refAc="$(jq -r --arg n "$name" '.current[$n].allocs_per_op // empty' "$SNAP")"
  [ -n "$refAc" ] && [ "$ac" != "-" ] || continue
  allowedAc=$(( refAc + ALLOC_SLACK ))
  if [ "${ac%.*}" -gt "$allowedAc" ]; then
    echo "REGRESSION: $name ${ac%.*} allocs/op > snapshot ${refAc} + slack ${ALLOC_SLACK} (ratchet)"
    fail=1
  else
    echo "ok: $name ${ac%.*} allocs/op (snapshot ${refAc}, limit ${allowedAc})"
  fi
done < "$raw.min"
rm -f "$raw.min"

if [ "$checked" -eq 0 ]; then
  echo "bench_check.sh: no benchmark in $BENCH overlaps the snapshot" >&2
  exit 1
fi
exit "$fail"
