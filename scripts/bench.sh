#!/usr/bin/env bash
# scripts/bench.sh — run the benchmark suite and emit a machine-readable
# perf snapshot so the performance trajectory across PRs has a baseline.
#
# Usage: scripts/bench.sh [out.json]        (default out: BENCH_PR21.json)
#   BENCH=regex    benchmarks to run        (default: .)
#   COUNT=n        -count samples per bench (default: 5)
#   BENCHTIME=d    -benchtime, e.g. 1x      (default: go's 1s)
#   SEED_FROM=f    snapshot whose "current" seeds a fresh baseline
#                  (default: BENCH_PR16.json)
#
# Output format (documented in README "Performance"):
#   {
#     "go": "go1.24.0", "count": 5, "bench": ".",
#     "baseline": { "<name>": {"ns_per_op": N, "b_per_op": N,
#                              "allocs_per_op": N, "samples": N}, ... },
#     "current":  { same shape }
#   }
# Per-benchmark numbers are the minimum over the COUNT samples (least
# scheduler noise). The first run against a fresh output file seeds its
# baseline from the previous PR's "current" figures (SEED_FROM) when
# that snapshot exists, so the new file measures against where the tree
# actually stood, and records itself only when there is no predecessor;
# later runs preserve the existing baseline and replace only "current",
# so speedups stay measured against the numbers recorded before an
# optimization landed.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_PR21.json}"
SEED_FROM="${SEED_FROM:-BENCH_PR16.json}"
BENCH="${BENCH:-.}"
COUNT="${COUNT:-5}"
BENCHTIME="${BENCHTIME:-}"

command -v jq >/dev/null || { echo "bench.sh: jq is required" >&2; exit 1; }

args=(test -run '^$' -bench "$BENCH" -benchmem -count "$COUNT")
if [ -n "$BENCHTIME" ]; then
  args+=(-benchtime "$BENCHTIME")
fi
args+=(./...)

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
go "${args[@]}" | tee "$raw"

# Parse `BenchmarkName-P  iters  N ns/op  N B/op  N allocs/op` lines,
# keeping the minimum of each figure across samples.
current="$(awk '
/^Benchmark/ {
  name = $1; sub(/-[0-9]+$/, "", name)
  ns = ""; bytes = ""; allocs = ""
  for (i = 2; i <= NF; i++) {
    if ($i == "ns/op")     ns     = $(i-1)
    if ($i == "B/op")      bytes  = $(i-1)
    if ($i == "allocs/op") allocs = $(i-1)
  }
  if (ns == "") next
  if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
  cnt[name]++
  if (!(name in minNs)     || ns+0     < minNs[name]+0)     minNs[name] = ns
  if (bytes  != "" && (!(name in minB) || bytes+0  < minB[name]+0))  minB[name] = bytes
  if (allocs != "" && (!(name in minA) || allocs+0 < minA[name]+0))  minA[name] = allocs
}
END {
  printf "{"
  for (i = 1; i <= n; i++) {
    name = order[i]
    if (i > 1) printf ","
    printf "\"%s\":{\"ns_per_op\":%s,\"b_per_op\":%s,\"allocs_per_op\":%s,\"samples\":%d}", \
      name, minNs[name], (name in minB ? minB[name] : "null"), \
      (name in minA ? minA[name] : "null"), cnt[name]
  }
  printf "}"
}' "$raw")"

if [ -z "$current" ] || [ "$current" = "{}" ]; then
  echo "bench.sh: no benchmark results parsed" >&2
  exit 1
fi

if [ -f "$OUT" ] && jq -e '.baseline' "$OUT" >/dev/null 2>&1; then
  baseline="$(jq -c '.baseline' "$OUT")"
elif [ -f "$SEED_FROM" ] && jq -e '.current' "$SEED_FROM" >/dev/null 2>&1; then
  baseline="$(jq -c '.current' "$SEED_FROM")"
else
  baseline="$current"
fi

jq -n \
  --arg go "$(go version | awk '{print $3}')" \
  --arg bench "$BENCH" \
  --argjson count "$COUNT" \
  --argjson baseline "$baseline" \
  --argjson current "$current" \
  '{go: $go, count: $count, bench: $bench, baseline: $baseline, current: $current}' \
  > "$OUT"

echo "wrote $OUT"
