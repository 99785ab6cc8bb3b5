#!/bin/sh
# Execution smoke, shared by scripts/check.sh and the CI workflow's
# gates job: the things `go test ./...` only compiles, or only replays
# from a fixed corpus, run for real.
#
#   1. every native fuzz target fuzzes for 5 s past its seed corpus
#      (`go test -fuzz` takes one package and one target per run). A
#      new-coverage input is minimized for at most 1 s: under the
#      default 60 s, a target with kilobyte seeds (FuzzBundleRead's
#      bundles) spends the whole window minimizing and fuzzes nothing.
#      A failure leaves the input under the package's testdata/fuzz/ —
#      commit it with the fix, as a regression seed. A new `func Fuzz`
#      is added to the list below.
#   2. each examples/ program runs to completion (each trains a toy
#      model in well under a second); output is dropped, a non-zero
#      exit fails the gate.
#
# Usage: scripts/smoke.sh
set -eu
cd "$(dirname "$0")/.."

fuzz() {
    go test -run '^$' -fuzz "^$2\$" -fuzztime 5s -fuzzminimizetime 1s "$1"
}
fuzz ./internal/api/ FuzzQueryParseForm
fuzz ./internal/api/ FuzzShardPartial
fuzz ./internal/client/ FuzzLegResponse
fuzz ./internal/dataset/ FuzzGridder
fuzz ./internal/index/ FuzzBundleRead
fuzz ./internal/ingest/ FuzzSegments
fuzz ./internal/server/ FuzzQueryBodies
fuzz ./internal/topk/ FuzzTAMatchesBruteForce
fuzz ./internal/train/ FuzzCheckpointLoad

for dir in examples/*/; do
    echo "go run ./$dir"
    go run "./$dir" > /dev/null
done
echo "smoke.sh: OK"
