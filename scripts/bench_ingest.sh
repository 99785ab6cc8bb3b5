#!/bin/sh
# Runs the streaming-ingestion benchmarks (ISSUE 9) and snapshots the
# numbers into BENCH_ingest.json at the repo root:
#
#   - internal/ingest append (single-record fsync'd and 128-record
#     batched) and full-log replay, each reporting events/s;
#   - internal/server updater cycle (fold-in latency per event at batch
#     size 1), the same cycle over 256-event batches behind 1k/8k/32k
#     events of history, and the isolated snapshot publish swap.
#
# The file is stamped with the host's CPU count and Go version, and
# every record with the GOMAXPROCS it ran under, in the schema of the
# other BENCH_*.json.
#
# Pass a -benchtime value as $1 to trade precision for runtime
# (default 1s). Pass a checkout of the parent commit as $2 to record a
# before/after: the history benchmark — this tree's benchmark file, so
# both sides run the same cycle — is also run there, and its records
# carry "tree": "parent".
#
# Usage: scripts/bench_ingest.sh [benchtime] [parent-checkout]
set -eu
cd "$(dirname "$0")/.."

benchtime=${1:-1s}
parent=${2:-}
out=BENCH_ingest.json
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

# run_bench <pkg> <bench regex>: one go test invocation appended to
# $raw, failing loudly when the regex matches no benchmark.
run_bench() {
    pkg=$1
    pattern=$2
    step=$(mktemp)
    go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" \
        "$pkg" | tee "$step"
    if ! grep -q '^Benchmark' "$step"; then
        rm -f "$step"
        echo "bench_ingest.sh: no benchmarks matched '$pattern' in $pkg" >&2
        exit 1
    fi
    cat "$step" >> "$raw"
    rm -f "$step"
}

run_bench ./internal/ingest/ 'BenchmarkAppend$|BenchmarkAppendBatch$|BenchmarkReplay$'
run_bench ./internal/server/ 'BenchmarkUpdaterStep$|BenchmarkUpdaterStepHistory$|BenchmarkSnapshotPublish$'
if [ -n "$parent" ]; then
    cp internal/server/updater_bench_test.go "$parent/internal/server/updater_bench_test.go"
    echo '#tree parent' >> "$raw"
    (cd "$parent" && run_bench ./internal/server/ 'BenchmarkUpdaterStepHistory$')
fi

# The -N suffix of a benchmark name is the GOMAXPROCS the run used
# (absent for 1); strip it into the record's "gomaxprocs" field, as
# bench_query.sh and bench_train.sh do.
awk -v ncpu="$(nproc 2>/dev/null || echo 1)" -v gover="$(go env GOVERSION)" '
BEGIN { print "{"; printf "  \"cpus\": %d,\n  \"go\": \"%s\",\n  \"benchmarks\": [\n", ncpu, gover }
/^#tree / { tree = $2 }
/^Benchmark/ {
    name = $1
    procs = 1
    if (match(name, /-[0-9]+$/)) {
        procs = substr(name, RSTART + 1) + 0
        name = substr(name, 1, RSTART - 1)
    }
    line = sprintf("    {\"name\": \"%s\", \"gomaxprocs\": %d, \"iterations\": %s, \"ns_per_op\": %s", name, procs, $2, $3)
    if (tree != "") line = line sprintf(", \"tree\": \"%s\"", tree)
    for (i = 4; i < NF; i++) {
        if ($(i+1) == "events/s")  line = line sprintf(", \"events_per_s\": %s", $i)
        if ($(i+1) == "B/op")      line = line sprintf(", \"bytes_per_op\": %s", $i)
        if ($(i+1) == "allocs/op") line = line sprintf(", \"allocs_per_op\": %s", $i)
    }
    line = line "}"
    if (n++) printf ",\n"
    printf "%s", line
}
END { print "\n  ]\n}" }
' "$raw" > "$out"
echo "wrote $out"
