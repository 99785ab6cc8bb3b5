#!/bin/sh
# The micro-benchmark recorder: runs one suite of `go test -bench`
# invocations and snapshots it into BENCH_<suite>.json at the repo root.
# Every snapshot has the same shape,
#
#   {"cpus", "go", "commit", "benchmarks": [{"name", "package",
#     "gomaxprocs", "iterations", "ns_per_op", "<unit>": <value>, ...}]}
#
# stamped with the host's CPU count, the Go version and the commit the
# tree was at ("-dirty" when it had uncommitted changes); every further
# "value unit" pair go test printed (B/op, allocs/op, cells/s, events/s,
# hit_rate, epochs, ...) is keyed by its unit as printed.
#
#   query    TA query (trained and flat user) / index build, the HTTP
#            handlers (the batch door among them), the result cache
#            (hit, miss, put, hot-user sketch; uncached, warm and
#            multi-epoch Zipf runs)
#            and one /recommend through a coordinator over 1, 2 and 4
#            live shard servers
#   train    one full EM iteration per TCAM variant, serial and
#            sharded-parallel, and per UT/TT baseline on a wide catalog
#            (cells/s is the headline), plus cuboid construction
#   ingest   log append (single fsync'd record and 128-record batch),
#            replay, the updater cycle at batch size 1 and over
#            256-event batches behind 1k/8k/32k events of history, and
#            the isolated snapshot swap
#
# The two benchmarks that fan work across cores (ServerRecommendBatch,
# EMIterationParallel) run under -cpu 1,2 and yield one record per
# setting; a curve the recording host has no cores for is not recorded.
# A snapshot records one tree; to compare a change against its parent,
# use scripts/abbench.sh (interleaved parent/change pairs).
#
# Usage: scripts/bench.sh <query|train|ingest> [benchtime]
#        scripts/bench.sh run <benchtime> <pkg> <regex> [go test flags...]
#
# `run` is the shared runner on its own, for scripts/bench_smoke.sh: one
# invocation, raw benchmark lines on stdout, nothing written.
set -eu
cd "$(dirname "$0")/.."

suite=${1:?usage: scripts/bench.sh <query|train|ingest|run> ...}
benchtime=${2:-1s}
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

# run_bench <pkg> <regex> [go test flags...]: one go test invocation,
# echoed and appended to $raw, failing loudly when any '|'-separated
# branch of the regex matched no benchmark line (a renamed benchmark
# must not silently vanish from a snapshot or pass a gate unmeasured).
run_bench() {
    pkg=$1
    pattern=$2
    shift 2
    step=$(mktemp)
    if ! go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" \
        "$@" "$pkg" > "$step"; then
        cat "$step" >&2
        rm -f "$step"
        exit 1
    fi
    cat "$step"
    for branch in $(printf '%s' "$pattern" | tr '|' ' '); do
        # Anchors are for go test's matcher; a result line is the name
        # followed by a sub-benchmark, a -GOMAXPROCS suffix or a blank.
        name=$(printf '%s' "$branch" | tr -d '^$')
        if ! grep -Eq "^${name}[-/[:space:]]" "$step"; then
            rm -f "$step"
            echo "bench.sh: no benchmark matched branch '$branch' of '$pattern' in $pkg" >&2
            exit 1
        fi
    done
    cat "$step" >> "$raw"
    rm -f "$step"
}

case $suite in
run)
    shift 2
    run_bench "$@"
    exit 0
    ;;
query)
    run_bench ./internal/topk/ 'BenchmarkTAQuery$|BenchmarkTAQueryFlat$|BenchmarkTAQueryDeep$|BenchmarkTAQueryParallel$|BenchmarkBuildIndex$'
    run_bench ./internal/server/ 'BenchmarkServerRecommend$|BenchmarkServerRecommendExclude$'
    run_bench ./internal/server/ 'BenchmarkServerRecommendBatch$' -cpu 1,2
    run_bench ./internal/rescache/ 'BenchmarkCacheHit$|BenchmarkCacheMiss$|BenchmarkCachePut$|BenchmarkHotObserve$'
    run_bench ./internal/server/ 'BenchmarkServerRecommendCacheHit$|BenchmarkServerZipfUncached$|BenchmarkServerZipfCacheWarm$|BenchmarkServerZipfCacheEpochs$|BenchmarkReloadPrecompute$'
    run_bench ./internal/shard/ 'BenchmarkCoordinator$'
    ;;
train)
    run_bench ./internal/model/tcam/ 'BenchmarkEMIteration$'
    run_bench ./internal/model/tcam/ 'BenchmarkEMIterationParallel$' -cpu 1,2
    run_bench ./internal/model/plsa/ 'BenchmarkPLSAIteration$'
    run_bench ./internal/cuboid/ 'BenchmarkCuboidBuild$|BenchmarkScaled$|BenchmarkSubset$'
    ;;
ingest)
    run_bench ./internal/ingest/ 'BenchmarkAppend$|BenchmarkAppendBatch$|BenchmarkReplay$'
    run_bench ./internal/server/ 'BenchmarkUpdaterStep$|BenchmarkUpdaterStepHistory$|BenchmarkSnapshotPublish$'
    ;;
*)
    echo "bench.sh: unknown suite '$suite' (want query, train, ingest or run)" >&2
    exit 2
    ;;
esac

# One record per result line, named without the -N suffix go test
# appends for GOMAXPROCS=N (absent for 1), which becomes "gomaxprocs",
# and qualified by the package the preceding "pkg:" line names.
out=BENCH_$suite.json
awk -v ncpu="$(nproc 2>/dev/null || echo 1)" -v gover="$(go env GOVERSION)" \
    -v commit="$(git describe --always --dirty 2>/dev/null || echo unknown)" '
BEGIN { printf "{\n  \"cpus\": %d,\n  \"go\": \"%s\",\n  \"commit\": \"%s\",\n  \"benchmarks\": [\n", ncpu, gover, commit }
/^pkg:/ { pkg = $2; sub(/^tcam\//, "", pkg) }
/^Benchmark/ {
    name = $1
    procs = 1
    if (match(name, /-[0-9]+$/)) {
        procs = substr(name, RSTART + 1) + 0
        name = substr(name, 1, RSTART - 1)
    }
    line = sprintf("    {\"name\": \"%s\", \"package\": \"%s\", \"gomaxprocs\": %d, \"iterations\": %s, \"ns_per_op\": %s", name, pkg, procs, $2, $3)
    for (i = 5; i < NF; i += 2) line = line sprintf(", \"%s\": %s", $(i+1), $i)
    if (n++) printf ",\n"
    printf "%s}", line
}
END { print "\n  ]\n}" }
' "$raw" > "$out"
echo "wrote $out"
