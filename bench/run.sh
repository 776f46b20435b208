#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload lublin-20k-cons --seed 3 --seconds 15 --trace 0
#   bash bench/run.sh -runs 10 -out set.json      # every workload, ten seeds
#
# Build outputs, the Go build cache and temporary files stay under
# .bench_build/ so a run reads and writes nothing outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
