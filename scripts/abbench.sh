#!/bin/sh
# A/B micro-benchmarks against a parent commit, as interleaved pairs: on
# the shared 2-vCPU host a timing means something only next to the other
# side's timing from the same minute (ROADMAP ground rules). The parent
# ref is checked out into a temporary directory (git archive: nothing in
# this repository's .git changes), and every pair runs the same
# `scripts/bench.sh run` — this tree's copy, on both sides — once in
# each tree, the side that goes first alternating from pair to pair.
#
# Prints, per benchmark and unit (ns/op, B/op, allocs/op and whatever
# else the benchmark reports), the median of each side over the pairs
# and its relative change, and for ns/op how many pairs each side won.
# A benchmark that exists on one side only fails the run (bench.sh's
# no-match check), so compare what both commits have.
#
# Usage: scripts/abbench.sh <parent-ref> <package> <bench-regex> [pairs] [benchtime]
#   e.g. scripts/abbench.sh HEAD~1 ./internal/cuboid/ 'BenchmarkCuboidBuild$' 5 20x
set -eu
cd "$(dirname "$0")/.."

ref=${1:?usage: scripts/abbench.sh <parent-ref> <package> <bench-regex> [pairs] [benchtime]}
pkg=${2:?missing package}
pattern=${3:?missing benchmark regex}
pairs=${4:-5}
benchtime=${5:-1s}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git archive "$(git rev-parse --verify "$ref^{commit}")" | tar -x -C "$work/parent"
cp scripts/bench.sh "$work/parent/scripts/bench.sh"

# side <name> <tree> <pair>: one bench.sh run in that tree, its result
# lines kept as "<name> <pair> <benchmark> <value> <unit>...".
side() {
    (cd "$2" && sh scripts/bench.sh run "$benchtime" "$pkg" "$pattern") |
        awk -v side="$1" -v pair="$3" '/^Benchmark/ { $2 = ""; print side, pair, $0 }' >> "$work/results"
}

i=1
while [ "$i" -le "$pairs" ]; do
    echo "pair $i of $pairs" >&2
    if [ $((i % 2)) -eq 1 ]; then
        side parent "$work/parent" "$i"
        side change . "$i"
    else
        side change . "$i"
        side parent "$work/parent" "$i"
    fi
    i=$((i + 1))
done

awk '
function median(side, key,    n, i, j, v, a) {
    n = count[side, key]
    for (i = 1; i <= n; i++) a[i] = val[side, key, i]
    for (i = 2; i <= n; i++) {
        v = a[i]
        for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]
        a[j + 1] = v
    }
    return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
}
{
    side = $1; pair = $2; name = $3
    for (f = 4; f < NF; f += 2) {
        key = name SUBSEP $(f + 1)
        if (!(key in seen)) { seen[key] = 1; order[++keys] = key }
        val[side, key, ++count[side, key]] = $f
        at[side, key, pair] = $f
    }
    if (pair > pairs) pairs = pair
}
END {
    for (k = 1; k <= keys; k++) {
        key = order[k]
        split(key, part, SUBSEP)
        p = median("parent", key); c = median("change", key)
        fmt = (p >= 100 || c >= 100) ? "%14.0f" : "%14.3f"
        line = sprintf("%-44s %-10s parent " fmt "   change " fmt, part[1], part[2], p, c)
        if (p != 0) line = line sprintf("   %+6.1f%%", 100 * (c - p) / p)
        if (part[2] == "ns/op") {
            pw = cw = 0
            for (i = 1; i <= pairs; i++) {
                if (at["parent", key, i] < at["change", key, i]) pw++
                if (at["change", key, i] < at["parent", key, i]) cw++
            }
            line = line sprintf("   faster in: parent %d, change %d of %d pairs", pw, cw, pairs)
        }
        print line
    }
}
' "$work/results"
