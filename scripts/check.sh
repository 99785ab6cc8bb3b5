#!/bin/sh
# Repo hygiene gate: formatting, vet, the tcamvet static-analysis suite,
# and race-enabled tests on the concurrency-sensitive packages (the
# pooled TA searcher, the HTTP serving lifecycle — drain/reload/shed —
# the retrying client and the fault-injection hooks), then the full
# suite, a tcamcheck assertion build of the models, an allocation
# gate on the pooled-searcher benchmarks, and a short run of every fuzz
# target and example program.
#
# Usage: scripts/check.sh [-short | race]
#   -short   skip the slow gates; run only formatting, vet, tcamvet and
#            the race tests
#   race     run only the race tests (the CI workflow's race job, so the
#            package list exists once)
set -eu
cd "$(dirname "$0")/.."

# The packages where scratch reuse, pooling, snapshot swaps, limiter
# counters or fault hooks could race, plus the ingest log (single
# writer, concurrent readers), the process shell and its signal loop
# (the root package holds its contract test, run against a monolith, a
# shard and a coordinator), the sharded EM training engine's reducer and
# the trainers on it — UT/TT, TCAM and TCAM fold-in, which the index's
# streaming advance drives (workers take shards from a queue, merge at
# their turn and write disjoint rows of one shared θ slab) — the
# scatter-gather serving tier (coordinator fan-out, hedged requests,
# circuit breakers) and the wire package that owns the pooled response
# encoder.
race() {
    go test -race -count=1 . ./internal/topk/ ./internal/server/ ./internal/eval/ \
        ./internal/faultinject/... ./internal/client/ ./internal/atomicfile/ \
        ./internal/ingest/ ./internal/train/ ./internal/model/plsa/ ./internal/model/tcam/ \
        ./internal/index/ ./internal/shard/ ./internal/rescache/ ./internal/api/ \
        ./cmd/tcamserver/ ./cmd/tcamshard/
}
if [ "${1:-}" = race ]; then
    race
    exit
fi

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
# bench/ is its own module outside `./...`; vet it and run its unit
# tests too, so an internal rename or behaviour change that breaks the
# benchmark is found here and not by its driver (-short skips the
# minute-long TestSmoke, which CI's gates job runs).
go vet -C bench ./...
go test -C bench -short ./...

# Repo-specific invariants: hot-path allocation rules, float equality,
# seeded randomness, panic message hygiene and dropped errors. Findings
# fail the gate.
go run ./cmd/tcamvet ./...

# Bounds-check-elimination gate: the unrolled kernel files must compile
# with zero per-element bounds checks (DESIGN.md §12).
scripts/check_bce.sh

race

if [ "${1:-}" != "-short" ]; then
    go test ./...

    # Debug-assertion build: train the models with the tcamcheck runtime
    # invariants compiled in (every θ row and ϕ column sums to 1 ± 1e-9
    # and stays finite after each M-step; λ stays in [0,1]), and fold
    # users into grown tables under the same checks.
    go test -tags tcamcheck -count=1 ./internal/model/... ./internal/index/

    # Benchmark gates: the pooled TA searcher and the serial EM
    # iteration must stay allocation-free at steady state, the
    # sharded-parallel EM benchmark must still run, a publish with cache
    # and precompute on must not grow with the log nor allocate what a
    # re-layout of the item-indexed tables would, and TA must not scan
    # deeper at a stream-opened interval than at a trained one. Shared
    # with the CI workflow's gates job.
    scripts/bench_smoke.sh

    # Execution smoke, also the gates job's: each fuzz target for 5 s,
    # each examples/ program once.
    scripts/smoke.sh
fi
echo "check.sh: OK"
