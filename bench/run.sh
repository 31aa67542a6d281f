#!/usr/bin/env bash
# Builds the benchmark program with the local Go toolchain and runs it from the
# repository root. Every build cache, binary and generated input stays under
# .bench_build/ in the checkout.
#
#   bash bench/run.sh --workload cfm-planaria-10m --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -seed 1 -out bench/results/new.json
#   bash bench/run.sh -compare old.json new.json
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=
cd "$root"
go -C bench build -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
