#!/bin/sh
# Benchmark allocation smoke gates, shared by scripts/check.sh and the
# CI workflow:
#
#   1. the pooled TA searcher must report 0 allocs/op at steady state,
#      single-threaded and under parallel pool churn;
#   2. the serial EM iteration benchmarks must stay allocation-free for
#      every TCAM variant (scripts/bench_train.sh -smoke);
#   3. the sharded-parallel EM benchmark must still run, so a refactor
#      cannot silently break the GOMAXPROCS sweep between full bench
#      runs;
#   4. the streaming-ingestion benchmarks (scripts/bench_ingest.sh)
#      must still run;
#   5. the result cache's hit path must report 0 allocs/op — a cached
#      answer that allocates is a regression of the DESIGN.md §16
#      contract;
#   6. an updater cycle behind 32k events of history — result cache on,
#      256 hot users warmed per publish — must cost at most twice one
#      behind 1k: a publish inherits from the previous generation
#      instead of growing with the log (DESIGN.md §15), and the queries
#      it triggers scan no deeper at a stream-opened interval than at a
#      trained one (DESIGN.md §6), which
#   7. TestLiveIntervalDepth asserts in list pops, not nanoseconds, so
#      the regression cannot hide on a noisy host;
#   8. the same 32k step must allocate at most 6 MB — half of the
#      11.5 MB/op it cost while every item-indexed table was laid out
#      anew per publish (about 4.6 MB/op over these 8 steps now,
#      DESIGN.md §15) — and TestPublishBytesAreDelta,
#      TestZeroTailSharesStorage and TestBuildIndexFromAcrossSpareRoom
#      assert the same in bytes and shared storage, deterministically.
#
# Usage: scripts/bench_smoke.sh
set -eu
cd "$(dirname "$0")/.."

bench_out=$(go test ./internal/topk -run - \
    -bench 'BenchmarkTAQuery$|BenchmarkTAQueryParallel$' \
    -benchmem -benchtime 200x -count=1)
echo "$bench_out"
if ! echo "$bench_out" | awk '
    /^Benchmark/ { if ($(NF-1) + 0 != 0) bad = 1 }
    END { exit bad }'; then
    echo "bench_smoke.sh: pooled-searcher benchmark allocates (want 0 allocs/op)" >&2
    exit 1
fi

cache_out=$(go test ./internal/rescache -run - \
    -bench 'BenchmarkCacheHit$|BenchmarkHotObserve$' \
    -benchmem -benchtime 200x -count=1)
echo "$cache_out"
if ! echo "$cache_out" | awk '
    /^Benchmark/ { if ($(NF-1) + 0 != 0) bad = 1 }
    END { exit bad }'; then
    echo "bench_smoke.sh: result-cache hit path allocates (want 0 allocs/op)" >&2
    exit 1
fi

scripts/bench_train.sh -smoke

go test -run '^$' -bench 'BenchmarkEMIterationParallel$' -benchtime 1x \
    ./internal/model/tcam/ >/dev/null

# The streaming-ingestion benchmarks must still run (full numbers come
# from scripts/bench_ingest.sh, which also snapshots BENCH_ingest.json;
# this is the does-it-still-build gate, so it writes nothing).
go test -run '^$' -bench 'BenchmarkAppend$|BenchmarkReplay$' -benchtime 1x \
    ./internal/ingest/ >/dev/null
go test -run '^$' -bench 'BenchmarkUpdaterStep$|BenchmarkSnapshotPublish$' -benchtime 1x \
    ./internal/server/ >/dev/null

history_out=$(go test -run '^$' -bench 'BenchmarkUpdaterStepHistory$' -benchtime 8x -benchmem -count=1 \
    ./internal/server/)
echo "$history_out"
if ! echo "$history_out" | awk '
    /^BenchmarkUpdaterStepHistory\/1k/  { short = $3 }
    /^BenchmarkUpdaterStepHistory\/32k/ { long = $3 }
    END { exit !(short > 0 && long > 0 && long <= 2 * short) }'; then
    echo "bench_smoke.sh: updater step behind 32k events costs more than 2x the step behind 1k (or did not run)" >&2
    exit 1
fi

# A -benchmem line ends "<bytes> B/op <n> allocs/op".
if ! echo "$history_out" | awk '
    /^BenchmarkUpdaterStepHistory\/32k/ { bytes = $(NF-3) }
    END { exit !(bytes > 0 && bytes <= 6000000) }'; then
    echo "bench_smoke.sh: updater step behind 32k events allocates more than 6 MB/op (or did not run)" >&2
    exit 1
fi

go test -run 'TestLiveIntervalDepth$' -count=1 ./internal/index/
go test -run 'TestPublishBytesAreDelta$' -count=1 ./internal/server/
go test -run 'TestZeroTailSharesStorage$|TestBuildIndexFromAcrossSpareRoom$' -count=1 ./internal/topk/
echo "bench_smoke.sh: OK"
