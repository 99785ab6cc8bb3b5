// Package shard is the fault-tolerant scatter-gather serving tier
// (DESIGN.md §14). The item catalog is partitioned into contiguous
// ranges, each served by a tcamserver in shard mode (server.
// WithItemRange); a Coordinator fans each query out to every shard,
// gathers the partial top-k lists, and merges them into exactly the
// answer the monolithic index would give — bit-identical scores, same
// tie-break order.
//
// The robustness discipline lives in the coordinator: per-shard
// deadline budgets carved from the request context, hedged retries for
// straggler shards (a backup request after the shard's observed latency
// quantile, first success wins, the loser is cancelled), a per-shard
// circuit breaker so a down shard costs nothing after it trips, and
// graceful degradation — when some shards are unavailable the merged
// result over the survivors is returned with a Degraded marker naming
// the missing item ranges, and only when every shard is down does the
// coordinator answer 503.
package shard

import (
	"sort"

	"tcam/internal/api"
	"tcam/internal/model"
)

// Range is a contiguous [Lo, Hi) window of the item catalog.
type Range = api.Range

// Partition splits a catalog of n items into at most shards contiguous
// ceil-chunk ranges, the same split the EM engine applies to users.
// Every item lands in exactly one range; when shards > n the trailing
// empty ranges are omitted.
func Partition(n, shards int) []Range {
	var out []Range
	model.CutRanges(n, shards, func(_, lo, hi int) {
		out = append(out, Range{Lo: lo, Hi: hi})
	})
	return out
}

// mergeTopK merges per-shard partial top-k lists into the global top-k.
// Shard windows are disjoint, so the global top-k is a subset of the
// concatenation; sorting by (score desc, item asc) — the exact order
// topk's result heap emits — and truncating to k therefore reproduces
// the monolithic answer bit-for-bit. Scores are compared with < and >
// only: equal scores fall through to the ascending-item tie-break.
func mergeTopK(partials []*api.ShardPartial, k int) []api.PartialResult {
	total := 0
	for _, p := range partials {
		total += len(p.Results)
	}
	merged := make([]api.PartialResult, 0, total)
	for _, p := range partials {
		merged = append(merged, p.Results...)
	}
	sort.Slice(merged, func(i, j int) bool {
		a, b := merged[i], merged[j]
		if a.Score > b.Score {
			return true
		}
		if a.Score < b.Score {
			return false
		}
		return a.Item < b.Item
	})
	if len(merged) > k {
		merged = merged[:k]
	}
	return merged
}
