// Package eval implements the paper's evaluation protocol
// (Section 5.3.1): temporal top-k queries are formed from every
// (user, interval) group holding at least one held-out test item, the
// user's training items in that interval are excluded from the
// candidates, and ranked lists are scored with Precision@k, NDCG@k and
// F1@k averaged over queries.
package eval

import (
	"context"
	"math"
	"sort"

	"tcam/internal/dataset"
	"tcam/internal/model"
	"tcam/internal/topk"
)

// Query is one temporal top-k evaluation query: recommend for user U in
// interval T; Test holds the ground-truth held-out items; Train holds
// the user's training items in the same interval (excluded from
// candidates).
type Query struct {
	U, T  int
	Test  map[int]bool
	Train map[int]bool
}

// BuildQueries extracts the evaluation queries from a train/test split:
// one query per (user, interval) group with at least one test item.
// Queries are ordered by (user, interval) for determinism.
func BuildQueries(split dataset.Split) []Query {
	type key struct{ u, t int32 }
	tests := make(map[key]map[int]bool)
	for _, cell := range split.Test.Cells() {
		k := key{cell.U, cell.T}
		if tests[k] == nil {
			tests[k] = make(map[int]bool)
		}
		tests[k][int(cell.V)] = true
	}
	trains := make(map[key]map[int]bool)
	for _, cell := range split.Train.Cells() {
		k := key{cell.U, cell.T}
		if tests[k] == nil {
			continue // only needed for groups that become queries
		}
		if trains[k] == nil {
			trains[k] = make(map[int]bool)
		}
		trains[k][int(cell.V)] = true
	}
	queries := make([]Query, 0, len(tests))
	for k, test := range tests {
		queries = append(queries, Query{U: int(k.u), T: int(k.t), Test: test, Train: trains[k]})
	}
	sort.Slice(queries, func(a, b int) bool {
		if queries[a].U != queries[b].U {
			return queries[a].U < queries[b].U
		}
		return queries[a].T < queries[b].T
	})
	return queries
}

// SampleQueries deterministically thins a query list to at most n
// entries (evenly strided), trading evaluation precision for speed in
// large sweeps.
func SampleQueries(queries []Query, n int) []Query {
	if n <= 0 || len(queries) <= n {
		return queries
	}
	out := make([]Query, 0, n)
	stride := float64(len(queries)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, queries[int(float64(i)*stride)])
	}
	return out
}

// Ranker produces the top-k items for a temporal query. The two
// implementations are brute force (any model) and TA (topic models).
type Ranker func(u, t, k int, exclude topk.Exclude) []topk.Result

// BruteForceRanker ranks with a full catalog scan of the model.
func BruteForceRanker(r model.Recommender) Ranker {
	return func(u, t, k int, exclude topk.Exclude) []topk.Result {
		res, _ := topk.BruteForce(r, u, t, k, exclude)
		return res
	}
}

// RankMetrics are the paper's three ranking metrics at one cutoff k,
// plus Recall and MRR (reciprocal rank of the first hit), which the
// paper does not plot but which make the curves easier to sanity-check.
type RankMetrics struct {
	Precision float64
	NDCG      float64
	F1        float64
	Recall    float64
	MRR       float64
}

// Curve is RankMetrics for k = 1..len(Curve); Curve[i] is the metric at
// k = i+1, the x-axis of Figures 6 and 7.
type Curve []RankMetrics

// At returns the metrics at cutoff k (1-based). It panics when k is
// outside the curve.
func (c Curve) At(k int) RankMetrics { return c[k-1] }

// Evaluate runs every query at cutoffs 1..maxK and returns the averaged
// metric curve. The ranked lists are computed across workers, each into
// its query's position, and then scored in query order — so the curve is
// a function of the lists alone, bit for bit, at any worker count. The
// ranker must be safe for concurrent use (all models in this module are,
// after training).
func Evaluate(rank Ranker, queries []Query, maxK, workers int) Curve {
	if maxK <= 0 || len(queries) == 0 {
		return nil
	}
	ranked := make([][]topk.Result, len(queries))
	model.ParallelRanges(len(queries), model.Workers(workers), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			q := queries[i]
			ranked[i] = rank(q.U, q.T, maxK, func(v int) bool { return q.Train[v] })
		}
	})
	return score(queries, maxK, func(i int) []topk.Result { return ranked[i] })
}

// EvaluateTA is Evaluate specialized to the Threshold Algorithm: the
// whole query set goes through Index.QueryBatch, so each worker reuses
// one pooled searcher instead of allocating per-query scratch. The
// resulting curve is bit-identical to Evaluate over a ranker that calls
// Index.Query once per query.
func EvaluateTA(ix *topk.Index, ts model.TopicScorer, queries []Query, maxK, workers int) Curve {
	if maxK <= 0 || len(queries) == 0 {
		return nil
	}
	batch := make([]topk.BatchQuery, len(queries))
	for i, q := range queries {
		train := q.Train
		var exclude topk.Exclude
		if len(train) > 0 {
			exclude = func(v int) bool { return train[v] }
		}
		batch[i] = topk.BatchQuery{U: q.U, T: q.T, K: maxK, Exclude: exclude}
	}
	res := ix.QueryBatch(context.Background(), ts, batch, workers)
	return score(queries, maxK, func(i int) []topk.Result { return res[i].Results })
}

// score is the one evaluation fold: it accumulates ranked(i), query i's
// list, for every query in query order and averages over the queries.
func score(queries []Query, maxK int, ranked func(i int) []topk.Result) Curve {
	sums := make(Curve, maxK)
	for i, q := range queries {
		accumulate(sums, ranked(i), q.Test, maxK)
	}
	n := float64(len(queries))
	for k := range sums {
		sums[k] = RankMetrics{
			Precision: sums[k].Precision / n,
			NDCG:      sums[k].NDCG / n,
			F1:        sums[k].F1 / n,
			Recall:    sums[k].Recall / n,
			MRR:       sums[k].MRR / n,
		}
	}
	return sums
}

// accumulate folds one query's ranked list into the running metric sums
// for every prefix cutoff.
func accumulate(sums []RankMetrics, res []topk.Result, test map[int]bool, maxK int) {
	hits := 0
	dcg := 0.0
	firstHit := 0 // 1-based rank of the first hit, 0 = none yet
	numTest := len(test)
	for k := 1; k <= maxK; k++ {
		if k-1 < len(res) && test[res[k-1].Item] {
			hits++
			dcg += 1 / math.Log2(float64(k)+1)
			if firstHit == 0 {
				firstHit = k
			}
		}
		precision := float64(hits) / float64(k)
		recall := 0.0
		if numTest > 0 {
			recall = float64(hits) / float64(numTest)
		}
		f1 := 0.0
		if precision+recall > 0 {
			f1 = 2 * precision * recall / (precision + recall)
		}
		ndcg := 0.0
		if ideal := idcg(k, numTest); ideal > 0 {
			ndcg = dcg / ideal
		}
		sums[k-1].Precision += precision
		sums[k-1].NDCG += ndcg
		sums[k-1].F1 += f1
		sums[k-1].Recall += recall
		if firstHit > 0 {
			sums[k-1].MRR += 1 / float64(firstHit)
		}
	}
}

// idcg is the DCG of the perfect ranking: the first min(k, numTest)
// positions are all hits.
func idcg(k, numTest int) float64 {
	n := k
	if numTest < n {
		n = numTest
	}
	var s float64
	for i := 1; i <= n; i++ {
		s += 1 / math.Log2(float64(i)+1)
	}
	return s
}
