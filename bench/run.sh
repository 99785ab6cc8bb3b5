#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark program with
# every cache inside the checkout, then hands it the driver's flags.
# Usage: bash bench/run.sh --workload serve_hot --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
# Keep the go tool's writes (build cache, work dirs, telemetry) inside
# the checkout; tcambench inherits these for its own `go build`.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOPROXY=off
go build -C "$root/bench" -o "$build/bin/tcambench" . >&2
exec "$build/bin/tcambench" -root "$root" "$@"
