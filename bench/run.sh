#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it. Everything
# the build writes (compiler cache, temporaries, the binary) and everything
# the run writes (stores, span files) stays under .bench_build in the checkout.
# Usage, from the root of the checkout:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash bench/run.sh --repeat 10 [--workload <name>]
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOENV=off
go build -C "$root/bench" -o "$build/hashflow-bench" .
exec "$build/hashflow-bench" "$@"
