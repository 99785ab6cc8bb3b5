#!/bin/sh
# Runs the training benchmarks (one full EM iteration per TCAM variant —
# ITCAM, TTCAM, TTCAM+background — serial and sharded-parallel, plus
# cuboid construction) and
# snapshots the numbers into BENCH_train.json at the repo root, in the
# same schema bench_query.sh uses for BENCH_query.json. The headline
# metric is cells/s: rated cuboid cells processed per second of EM
# iteration. BenchmarkEMIterationParallel runs under a GOMAXPROCS
# 1/2/4/8 sweep (go test -cpu), recorded per setting via the
# "gomaxprocs" field — the multi-core scaling curve.
#
# Usage: scripts/bench_train.sh [benchtime]
#        scripts/bench_train.sh -smoke
#
#   benchtime   -benchtime value passed to go test (default 1s)
#   -smoke      quick regression gate for check.sh: a 3x run of the
#               serial iteration benchmarks only, written to a temp file
#               instead of BENCH_train.json, failing if any serial
#               BenchmarkEMIteration variant reports a nonzero allocs/op
#               (the EM hot loop must stay allocation-free at steady
#               state; the Parallel variant is exempt — fanning shards
#               across workers allocates the closure and goroutines).
set -eu
cd "$(dirname "$0")/.."

benchtime=${1:-1s}
out=BENCH_train.json
smoke=0
if [ "${1:-}" = "-smoke" ]; then
    smoke=1
    benchtime=3x
    out=$(mktemp)
fi
raw=$(mktemp)
trap 'rm -f "$raw"; [ "$smoke" = 1 ] && rm -f "$out" || true' EXIT

# run_bench <bench regex> <extra flags...> -- <pkgs...>: one go test
# invocation appended to $raw, failing loudly when the regex matches no
# benchmark (a renamed benchmark must not silently vanish).
run_bench() {
    pattern=$1
    shift
    step=$(mktemp)
    go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" \
        "$@" | tee "$step"
    if ! grep -q '^Benchmark' "$step"; then
        rm -f "$step"
        echo "bench_train.sh: no benchmarks matched '$pattern'" >&2
        exit 1
    fi
    cat "$step" >> "$raw"
    rm -f "$step"
}

run_bench 'BenchmarkEMIteration$' ./internal/model/tcam/
if [ "$smoke" = 0 ]; then
    run_bench 'BenchmarkEMIterationParallel$' -cpu 1,2,4,8 \
        ./internal/model/tcam/
    run_bench 'BenchmarkCuboidBuild|BenchmarkScaled|BenchmarkSubset' \
        ./internal/cuboid/
fi

# Qualify each benchmark name with the package the preceding "pkg:" line
# names (the variant is the sub-benchmark suffix, e.g.
# BenchmarkEMIteration/ITCAM). The
# -N suffix on a benchmark name is the GOMAXPROCS the run used (absent
# for 1); strip it into the record's "gomaxprocs" field.
awk -v ncpu="$(nproc 2>/dev/null || echo 1)" '
BEGIN { print "{"; printf "  \"cpus\": %d,\n  \"benchmarks\": [\n", ncpu }
/^pkg:/ { pkg = $2; sub(/^tcam\//, "", pkg) }
/^Benchmark/ {
    name = $1
    procs = 1
    if (match(name, /-[0-9]+$/)) {
        procs = substr(name, RSTART + 1) + 0
        name = substr(name, 1, RSTART - 1)
    }
    line = sprintf("    {\"name\": \"%s\", \"package\": \"%s\", \"gomaxprocs\": %d, \"iterations\": %s, \"ns_per_op\": %s", name, pkg, procs, $2, $3)
    for (i = 4; i < NF; i++) {
        if ($(i+1) == "cells/s")   line = line sprintf(", \"cells_per_sec\": %s", $i)
        if ($(i+1) == "B/op")      line = line sprintf(", \"bytes_per_op\": %s", $i)
        if ($(i+1) == "allocs/op") line = line sprintf(", \"allocs_per_op\": %s", $i)
    }
    line = line "}"
    if (n++) printf ",\n"
    printf "%s", line
}
END { print "\n  ]\n}" }
' "$raw" > "$out"

if [ "$smoke" = 1 ]; then
    if ! awk '
        /^BenchmarkEMIteration/ { if ($(NF-1) + 0 != 0) bad = 1 }
        END { exit bad }' "$raw"; then
        echo "bench_train.sh: BenchmarkEMIteration allocates (want 0 allocs/op)" >&2
        exit 1
    fi
    echo "bench_train.sh: smoke OK (EM iteration allocation-free)"
else
    echo "wrote $out"
fi
