#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout
# root and runs it there; every argument is passed on:
#
#   bash perfbench/run.sh --workload http-rows --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and configuration live under
# .bench_build too, so a run writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
