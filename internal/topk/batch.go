package topk

import (
	"context"

	"tcam/internal/faultinject"
	"tcam/internal/model"
)

// BatchQuery is one temporal top-k query of a batch: recommend K items
// for user U at interval T, filtered by the optional Exclude.
type BatchQuery struct {
	U, T    int
	K       int
	Exclude Exclude
}

// BatchResult pairs one batch query's ranked items with its work stats.
// Results is caller-owned. Done reports whether the query actually ran:
// QueryBatch leaves entries it abandoned on cancellation with
// Done == false (a zero result is otherwise indistinguishable from a
// legitimate empty ranking, e.g. K == 0).
type BatchResult struct {
	Results []Result
	Stats   Stats
	Done    bool
}

// QueryBatch answers a slice of queries concurrently, fanning contiguous
// chunks across workers (non-positive workers means one per CPU). Each
// worker reuses a single pooled Searcher for its whole chunk, so the
// per-query cost matches the allocation-free fast path plus one result
// copy. Results align with queries by position and are each
// bit-identical to BruteForce; ts must be the scorer the index was
// built from. Cancellation is cooperative: each worker checks ctx
// between queries and leaves the rest of its chunk with Done == false,
// so a completed entry is always fully correct, never half-answered.
func (ix *Index) QueryBatch(ctx context.Context, ts model.TopicScorer, queries []BatchQuery, workers int) []BatchResult {
	out := make([]BatchResult, len(queries))
	model.ParallelRanges(len(queries), model.Workers(workers), func(_, lo, hi int) {
		s := ix.AcquireSearcher()
		defer s.Release()
		for i := lo; i < hi; i++ {
			faultinject.Fire("topk.batch.query")
			if ctx.Err() != nil {
				return
			}
			q := queries[i]
			res, st := s.Query(ts, q.U, q.T, q.K, q.Exclude)
			out[i] = BatchResult{Results: cloneResults(res), Stats: st, Done: true}
		}
	})
	return out
}
