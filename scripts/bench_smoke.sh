#!/bin/sh
# Benchmark smoke gates, shared by scripts/check.sh and the CI workflow.
# Every benchmark goes through the shared runner (scripts/bench.sh run),
# so a gate whose benchmark was renamed fails instead of passing
# unmeasured:
#
#   1. the pooled TA searcher must report 0 allocs/op at steady state,
#      single-threaded, for a flat query that walks the floor list, for
#      serve_cold's k = 50 over user, floor and collapsed context lists,
#      and under parallel pool churn;
#   2. the serial EM iteration benchmarks must stay allocation-free for
#      every TCAM variant (the Parallel variant is exempt — fanning
#      shards across workers allocates the closure and goroutines);
#   3. the sharded-parallel EM benchmark must still run, so a refactor
#      cannot silently break the GOMAXPROCS sweep between full bench
#      runs;
#   4. the streaming-ingestion benchmarks must still run;
#   5. the result cache's hit path must report 0 allocs/op — a cached
#      answer that allocates is a regression of the DESIGN.md §16
#      contract;
#   6. an updater cycle behind 32k events of history — result cache on,
#      256 hot users warmed per publish — must cost at most twice one
#      behind 1k: a publish inherits from the previous generation
#      instead of growing with the log (DESIGN.md §15), and the queries
#      it triggers scan no deeper at a stream-opened interval than at a
#      trained one, nor for a user with no history than for a trained
#      one (DESIGN.md §6), which
#   7. TestLiveIntervalDepth and TestFlatUserDepth assert in list pops,
#      not nanoseconds, so the regression cannot hide on a noisy host;
#   8. the same 32k step must allocate at most 6 MB — half of the
#      11.5 MB/op it cost while every item-indexed table was laid out
#      anew per publish (about 4.6 MB/op over these 8 steps now,
#      DESIGN.md §15) — and TestPublishBytesAreDelta,
#      TestZeroTailSharesStorage and TestBuildIndexFromAcrossSpareRoom
#      assert the same in bytes and shared storage, deterministically;
#   9. one /recommend through the coordinator over two live shards must
#      allocate at most 190 times — 333 while every leg decoded its
#      partial with encoding/json on a fresh goroutine, 222 on the hand
#      codec and the coordinator's workers, 174 once each leg made its
#      own round trip over client.Transport, 160 since a leg runs its
#      first attempt itself and hedges without a results channel
#      (DESIGN.md §14);
#  10. a /recommend cache hit must allocate at most 9 times — 14 while
#      every hit built a url.Values map and rendered its answer again;
#      what is left is the benchmark's recorder and the shell's panic
#      wrapper, not the hit (DESIGN.md §16);
#  11. a whole-catalog index build at GOMAXPROCS 2 must allocate at most
#      42.1 MB — 52.4 MB/op while every freshly sorted list gathered its
#      weights into a new V-float slice, 42.0 since each worker reuses
#      one gather buffer across its groups; the bound is pinned to a CPU
#      count because each worker holds one buffer;
#  12. a cuboid build over 80k ratings must stay at most 8 allocs/op and
#      7.8 MB/op — 13 and 8.39 MB/op while the cuboid kept by-user and
#      by-interval column copies of every cell beside its []Cell; a
#      cuboid is its cells in two orders and two row pointers now
#      (DESIGN.md §11).
#
# Usage: scripts/bench_smoke.sh
set -eu
cd "$(dirname "$0")/.."

# zero_allocs <what> <benchtime> <pkg> <regex>: run, echo, and fail when
# any result line's allocs/op (the field before the last) is nonzero.
zero_allocs() {
    what=$1
    shift
    lines=$(scripts/bench.sh run "$@")
    echo "$lines"
    if ! echo "$lines" | awk '
        /^Benchmark/ { if ($(NF-1) + 0 != 0) bad = 1 }
        END { exit bad }'; then
        echo "bench_smoke.sh: $what allocates (want 0 allocs/op)" >&2
        exit 1
    fi
}

zero_allocs "pooled-searcher benchmark" 200x ./internal/topk/ 'BenchmarkTAQuery$|BenchmarkTAQueryFlat$|BenchmarkTAQueryDeep$|BenchmarkTAQueryParallel$'
zero_allocs "result-cache hit path" 200x ./internal/rescache/ 'BenchmarkCacheHit$|BenchmarkHotObserve$'
zero_allocs "serial EM iteration" 3x ./internal/model/tcam/ 'BenchmarkEMIteration$'

# Does-it-still-run gates; full numbers come from scripts/bench.sh.
scripts/bench.sh run 1x ./internal/model/tcam/ 'BenchmarkEMIterationParallel$' >/dev/null
scripts/bench.sh run 1x ./internal/ingest/ 'BenchmarkAppend$|BenchmarkReplay$' >/dev/null
scripts/bench.sh run 1x ./internal/server/ 'BenchmarkUpdaterStep$|BenchmarkSnapshotPublish$' >/dev/null

history_out=$(scripts/bench.sh run 8x ./internal/server/ 'BenchmarkUpdaterStepHistory$')
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

coord_out=$(scripts/bench.sh run 200x ./internal/shard/ 'BenchmarkCoordinator$')
echo "$coord_out"
if ! echo "$coord_out" | awk '
    /^BenchmarkCoordinator\/shards=2/ { allocs = $(NF-1) }
    END { exit !(allocs > 0 && allocs <= 190) }'; then
    echo "bench_smoke.sh: BenchmarkCoordinator/shards=2 allocates more than 190 times per op (or did not run)" >&2
    exit 1
fi

hit_out=$(scripts/bench.sh run 2000x ./internal/server/ 'BenchmarkServerRecommendCacheHit$')
echo "$hit_out"
if ! echo "$hit_out" | awk '
    /^BenchmarkServerRecommendCacheHit/ { allocs = $(NF-1) }
    END { exit !(allocs > 0 && allocs <= 9) }'; then
    echo "bench_smoke.sh: BenchmarkServerRecommendCacheHit allocates more than 9 times per op (or did not run)" >&2
    exit 1
fi

build_out=$(scripts/bench.sh run 3x ./internal/topk/ 'BenchmarkBuildIndex$' -cpu 2)
echo "$build_out"
if ! echo "$build_out" | awk '
    /^BenchmarkBuildIndex-2/ { bytes = $(NF-3) }
    END { exit !(bytes > 0 && bytes <= 42100000) }'; then
    echo "bench_smoke.sh: BenchmarkBuildIndex allocates more than 42.1 MB/op at GOMAXPROCS 2 (or did not run)" >&2
    exit 1
fi

cuboid_out=$(scripts/bench.sh run 5x ./internal/cuboid/ 'BenchmarkCuboidBuild$')
echo "$cuboid_out"
if ! echo "$cuboid_out" | awk '
    /^BenchmarkCuboidBuild/ { bytes = $(NF-3); allocs = $(NF-1) }
    END { exit !(bytes > 0 && bytes <= 7800000 && allocs > 0 && allocs <= 8) }'; then
    echo "bench_smoke.sh: BenchmarkCuboidBuild allocates more than 8 times or 7.8 MB per op (or did not run)" >&2
    exit 1
fi

go test -run 'TestLiveIntervalDepth$|TestFlatUserDepth$' -count=1 ./internal/index/
go test -run 'TestPublishBytesAreDelta$' -count=1 ./internal/server/
go test -run 'TestZeroTailSharesStorage$|TestBuildIndexFromAcrossSpareRoom$' -count=1 ./internal/topk/
echo "bench_smoke.sh: OK"
