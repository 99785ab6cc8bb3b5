#!/usr/bin/env bash
# Runs every workload several times, each with another seed, into one
# result directory: the input of `run.sh -compare <dir>` (spread of one
# commit) and `run.sh -compare <dirA> <dirB>` (two commits or two sets).
# Usage: bash bench/repeat.sh <out-dir> [runs=10] [first-seed=1] [trace=0]
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out=${1:?usage: repeat.sh <out-dir> [runs] [first-seed] [trace]}
runs=${2:-10}
first=${3:-1}
trace=${4:-0}
mkdir -p "$out"
for w in serve_hot serve_cold serve_sharded publish_under_read train_batch; do
  for ((i = 0; i < runs; i++)); do
    bash "$here/run.sh" --workload "$w" --seed $((first + i)) --trace "$trace" --out "$out" | tail -n 1
  done
done
