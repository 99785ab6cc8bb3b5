// Package model defines the contracts shared by every user-behavior
// model in the TCAM reproduction — the two TCAM variants, the UT/TT
// topic baselines, BPRMF and BPTF — plus the parallel-EM machinery they
// share. Concrete models live in the subpackages.
package model

import (
	"runtime"
	"sync"
	"time"
)

// Recommender is the minimal surface the evaluation harness needs: a
// ranking score for item v given the query (u, t) of Section 4. Higher
// is better; absolute scale is model-specific.
type Recommender interface {
	// Name returns the label used in the paper's tables and figures
	// (e.g. "W-TTCAM", "BPRMF").
	Name() string
	// Score returns the ranking score S(u, t, v).
	Score(u, t, v int) float64
	// NumItems returns the item-catalog size the model was trained on.
	NumItems() int
}

// BulkScorer is an optional fast path: fill scores[v] for every item at
// once. The brute-force ranker uses it when available to avoid
// recomputing per-query state V times.
type BulkScorer interface {
	Recommender
	// ScoreAll writes S(u, t, v) into scores[v] for all v. len(scores)
	// must be NumItems().
	ScoreAll(u, t int, scores []float64)
}

// TopicScorer exposes the expanded topic space of Section 4.1, the
// interface the Threshold Algorithm needs: a query decomposes into
// non-negative per-topic weights ϑq, items carry non-negative per-topic
// weights ϕ_z̃v, and the ranking score is their inner product
// (Equation 22). Monotonicity of this form is what makes TA applicable.
type TopicScorer interface {
	Recommender
	// NumTopics returns K, the expanded topic-space dimension.
	NumTopics() int
	// QueryWeights returns ϑq for query (u, t): a non-negative vector of
	// length NumTopics(). Entries may be zero; TA skips those lists.
	QueryWeights(u, t int) []float64
	// TopicItems returns ϕ_z̃ for topic z̃: non-negative per-item weights
	// of length NumItems(). Callers must not modify the slice.
	TopicItems(z int) []float64
}

// ContextScorer is an optional TopicScorer extension for scorers whose
// query weights split, as TCAM's do (Equation 1), into a half that
// depends on the user and a half that depends only on the interval:
// over the expanded topics [lo, hi) of ContextTopics,
//
//	ϑq[lo+x] = γ · ContextWeights(t)[x]   (rounded once)
//
// with γ ≥ 0 the only trace of the user. The Threshold Algorithm then
// walks one list per interval sorted by Σ_x ContextWeights(t)[x]·ϕ_x,v
// in place of hi−lo topic lists, whose summed heads bound that sum
// loosely. Both TCAM variants implement it; it is also the serving fast
// path's allocation-free way to ϑq.
type ContextScorer interface {
	TopicScorer
	// NumIntervals returns T, the number of intervals a query may name.
	NumIntervals() int
	// ContextTopics returns the range [lo, hi) of expanded topics that
	// make up the user-independent half. An empty range means there is
	// nothing to collapse: the expanded topics already hold one topic per
	// interval (ITCAM).
	ContextTopics() (lo, hi int)
	// ContextWeights returns interval t's non-negative weights over the
	// context topics, of length hi−lo; consulted only for a non-empty
	// range. Callers must not modify the slice.
	ContextWeights(t int) []float64
	// QueryWeightsInto overwrites dst, of length NumTopics(), with ϑq for
	// query (u, t) and returns γ.
	QueryWeightsInto(u, t int, dst []float64) (context float64)
}

// IterStat describes one EM iteration for observability consumers:
// the per-iteration hook of the training engine, the tcamtrain
// -progress / -train-log views and the experiments convergence report.
type IterStat struct {
	// Iter is the 1-based iteration number within the whole run
	// (checkpoint-resumed runs continue the numbering).
	Iter int
	// LogLikelihood is the data log-likelihood under the parameters the
	// iteration started from.
	LogLikelihood float64
	// Delta is the relative log-likelihood improvement over the previous
	// iteration (the quantity the Tol early-stop tests); 0 on the first.
	Delta float64
	// EStep and MStep split the iteration's wall time between the
	// parallel expectation pass and the coordinator maximization.
	EStep time.Duration
	MStep time.Duration
	// Wall is the iteration's total wall time.
	Wall time.Duration
}

// Reasons a training run stopped, recorded in TrainStats.StopReason.
const (
	StopConverged = "converged"
	StopMaxIters  = "max-iters"
)

// TrainStats records an EM run: the log-likelihood after every
// iteration and why training stopped.
type TrainStats struct {
	// LogLikelihood[i] is the data log-likelihood after iteration i+1.
	LogLikelihood []float64
	// Converged is true when the relative improvement fell below the
	// tolerance before MaxIters was reached.
	Converged bool
	// Iters carries the per-iteration observability records of an EM run
	// (every EM method trains on the internal/train engine); the
	// factorization baselines leave it nil.
	Iters []IterStat
	// StopReason is one of the Stop* constants for an EM run, empty
	// otherwise.
	StopReason string
	// ResumedAt is the number of already-completed iterations restored
	// from a checkpoint (0 for uninterrupted runs).
	ResumedAt int
}

// Iterations returns the number of EM iterations actually run.
func (s TrainStats) Iterations() int { return len(s.LogLikelihood) }

// Final returns the last recorded log-likelihood, or 0 when training
// recorded none.
func (s TrainStats) Final() float64 {
	if len(s.LogLikelihood) == 0 {
		return 0
	}
	return s.LogLikelihood[len(s.LogLikelihood)-1]
}

// Workers resolves a configured worker count: non-positive means one
// worker per available CPU.
func Workers(configured int) int {
	if configured > 0 {
		return configured
	}
	return runtime.GOMAXPROCS(0)
}

// SpareItems is the room, in items, that a table indexed by item gets
// beyond a catalog of v when it has to be laid out anew for a growing
// catalog: later arrivals that weigh zero in it are then the same
// storage one reslice longer (DESIGN.md §15).
func SpareItems(v int) int { return max(64, v/8) }

// CutRanges is the one ceil-chunk partition: it cuts [0, n) into at most
// parts contiguous ranges of ceil(n/parts) and calls fn(i, lo, hi) for
// each, in order. EM's user shards, every parallel loop and the serving
// tier's item ranges are all this split, and the summation grouping the
// *_prerefactor_* fixtures were recorded under is its arithmetic.
func CutRanges(n, parts int, fn func(i, lo, hi int)) {
	if n <= 0 {
		return
	}
	parts = max(1, min(parts, n))
	chunk := (n + parts - 1) / parts
	for i, lo := 0, 0; lo < n; i, lo = i+1, lo+chunk {
		fn(i, lo, min(lo+chunk, n))
	}
}

// ParallelRanges splits [0, n) into contiguous chunks (CutRanges) and
// runs fn once per chunk across the given number of workers, blocking
// until all complete. fn receives the worker index (for per-worker
// accumulators) and its [lo, hi) range. With one worker or tiny n it
// degenerates to a direct call, keeping single-threaded runs
// allocation-free.
func ParallelRanges(n, workers int, fn func(worker, lo, hi int)) {
	if min(n, workers) <= 1 {
		CutRanges(n, 1, fn)
		return
	}
	var wg sync.WaitGroup
	CutRanges(n, workers, func(worker, lo, hi int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(worker, lo, hi)
		}()
	})
	wg.Wait()
}

// NormalizeRows renormalizes each length-cols row of a flat row-major
// accumulator into a probability distribution with additive smoothing
// eps, writing the result in place. A row with no mass becomes uniform.
//
//tcam:hotpath
func NormalizeRows(data []float64, cols int, eps float64) {
	if cols <= 0 {
		return
	}
	for r := 0; r*cols < len(data); r++ {
		row := data[r*cols : (r+1)*cols]
		var sum float64
		for _, x := range row {
			sum += x
		}
		denom := sum + eps*float64(cols)
		if denom <= 0 {
			u := 1.0 / float64(cols)
			for i := range row {
				row[i] = u
			}
			continue
		}
		for i := range row {
			row[i] = (row[i] + eps) / denom
		}
	}
}
