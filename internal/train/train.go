// Package train is the one EM training engine. Its clients are
// internal/model/tcam's batch training (Run over users) and streaming
// fold-in (a Reducer over the new users), internal/model/plsa's UT and
// TT baselines (Run over documents) and the EM benchmarks — all six EM
// methods of Section 5.2 iterate here. The loop has the MapReduce shape
// the paper notes in Section 3.2.3 — user-sharded E-steps (map), an
// ordered accumulator merge (reduce), one M-step — and the engine owns
// everything about it that is not model math:
//
//   - the reduce — deterministic user-range sharding, a worker pool
//     executing shards, and an ordered accumulator merge, so the
//     learned parameters are bit-identical for any worker count;
//   - one convergence policy — MaxIters and a relative log-likelihood
//     tolerance — applied uniformly to every client;
//   - checkpoint/resume — full parameter snapshots through
//     internal/atomicfile that resume to parameters bit-identical to an
//     uninterrupted run;
//   - observability — per-iteration IterStat records (log-likelihood,
//     delta, E/M-step wall-time split) fed to TrainStats and an optional
//     streaming hook.
//
// Determinism contract: the number of shards — not the number of
// workers — fixes the floating-point summation grouping. Shards are
// contiguous user ranges cut with the same arithmetic for a given
// (users, shards) pair, shard 0's accumulator is the running total and
// every later shard is merged into it in ascending order, so the sum is
// always ((s0 + s1) + s2) + …. Workers only decide how many goroutines
// execute the shards and how many accumulators (one more than the
// workers) are reused from shard to shard; results never depend on
// them, nor on OS scheduling.
package train

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"tcam/internal/model"
)

// DefaultShards is the deterministic E-step shard count used when a
// config leaves Shards at zero. It is a fixed constant — not GOMAXPROCS
// — so default-config training runs reproduce bit-for-bit across
// machines of any size.
const DefaultShards = 8

// LambdaClamp keeps learned mixing weights away from the degenerate
// endpoints, where one mixture component could never recover mass.
const LambdaClamp = 0.01

// ClampLambda bounds a mixing weight to [LambdaClamp, 1-LambdaClamp].
func ClampLambda(x float64) float64 {
	if x < LambdaClamp {
		return LambdaClamp
	}
	if x > 1-LambdaClamp {
		return 1 - LambdaClamp
	}
	return x
}

// MergeInto folds one accumulator slab into another by element-wise
// addition. It is the engine's single merge primitive: every ordered
// accumulator merge goes through it. dst and src must have equal length.
//
//tcam:hotpath
func MergeInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic("train: MergeInto slab length mismatch")
	}
	for i, x := range src {
		dst[i] += x
	}
}

// Zero clears an accumulator slab in place.
//
//tcam:hotpath
func Zero(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// Scratch returns a zeroed length-n slab with a cache line of unused
// capacity behind it. Accumulators that workers write per cell —
// posterior scratch rows — come from it, so two workers' accumulators
// allocated side by side never write the same cache line.
func Scratch(n int) []float64 { return make([]float64, n, n+8) }

// Transpose writes the rows×cols row-major matrix src into dst as its
// cols×rows transpose: dst[c*rows+r] = src[r*cols+c]. It is pure data
// movement — no arithmetic — so round-tripping a slab through it is
// bit-exact. The trainers use it to keep an item-major copy of the
// topic-item matrices: the E-step then reads and accumulates one
// contiguous K-length row per cell instead of a stride-V column, which
// is what keeps the θ/ϕ accumulator rows cache-resident.
//
//tcam:hotpath
func Transpose(dst, src []float64, rows, cols int) {
	if len(dst) != len(src) || len(src) != rows*cols {
		panic("train: Transpose dimension mismatch")
	}
	for r := 0; r < rows; r++ {
		row := src[r*cols : (r+1)*cols]
		for c, x := range row {
			dst[c*rows+r] = x
		}
	}
}

// Accum is the global sufficient-statistic slab set of one shard. The
// reducer resets it before the shard is E-stepped into it, merges it
// into the running total in ascending shard order, and reuses it for a
// later shard.
type Accum interface {
	// Reset clears the accumulator for the next shard; calls for
	// different accumulators may run concurrently. The user-sharded
	// statistics are the E-step's to clear, not Reset's.
	Reset()
	// Merge folds src into the receiver by element-wise addition. The
	// engine calls it in ascending shard order, which fixes the
	// floating-point summation grouping.
	Merge(src Accum)
}

// Trainable is the model-specific half of the EM loop: the engine owns
// iteration order, sharding, merging, convergence and checkpoints; the
// model owns the math.
type Trainable interface {
	// NumUsers returns the size of the sharding dimension.
	NumUsers() int
	// NewAccum allocates an accumulator. The reducer allocates one per
	// worker plus one, and reuses them every iteration.
	NewAccum() Accum
	// EStep scans the user range [lo, hi): it clears and fills the
	// range's own user-dimension statistics, and adds the global
	// statistics (and the range's log-likelihood term) into a, which
	// was just reset. Calls for disjoint ranges may run concurrently.
	EStep(a Accum, lo, hi int)
	// MStep consumes the merged accumulator, updates the model
	// parameters in place, and returns the data log-likelihood under the
	// parameters the iteration started from (the quantity EM never
	// decreases).
	MStep(merged Accum) float64
}

// Config is the engine-level training policy shared by every trainer.
type Config struct {
	// MaxIters bounds the EM iterations; it must be positive.
	MaxIters int
	// Tol is the relative log-likelihood improvement under which
	// training stops early; 0 disables the early stop (the run always
	// burns MaxIters), negative is invalid.
	Tol float64
	// Shards is the deterministic user-range shard count (0 means
	// DefaultShards). It — not Workers — fixes the floating-point
	// summation grouping, so two runs agree bit-for-bit exactly when
	// their shard counts agree.
	Shards int
	// Workers caps E-step goroutines; non-positive means GOMAXPROCS.
	// Worker count never affects the learned parameters.
	Workers int
	// Checkpoint configures periodic parameter snapshots; the zero
	// value disables them.
	Checkpoint CheckpointConfig
	// Hook, when non-nil, observes every iteration from the coordinator
	// goroutine (safe to write to files or channels without locking).
	Hook func(model.IterStat)
}

func (c Config) validate() error {
	if c.MaxIters <= 0 {
		return fmt.Errorf("train: MaxIters must be positive, got %d", c.MaxIters)
	}
	if c.Tol < 0 {
		return fmt.Errorf("train: negative Tol %v", c.Tol)
	}
	return c.Checkpoint.validate()
}

// shardCount resolves the configured shard count against n users: the
// default when unset, never more shards than users, at least one. It
// reads nothing else, so shard ranges — and with them the summation
// grouping — depend only on (n, shards), never on Workers.
func shardCount(configured, n int) int {
	s := configured
	if s <= 0 {
		s = DefaultShards
	}
	if s > n {
		s = n
	}
	if s < 1 {
		s = 1
	}
	return s
}

// Reducer is one iteration's map and reduce: it E-steps a user range
// shard by shard across its workers and merges the shards' statistics
// in ascending order. Build one per run and call Reduce every
// iteration; the accumulators it allocates on first use are reused, so
// a steady-state Reduce on one worker allocates nothing. A Reducer is
// not safe for concurrent Reduce calls.
type Reducer struct {
	t       Trainable
	workers int
	accs    []Accum // every accumulator allocated, one per worker plus one
	cuts    [][2]int

	mu      sync.Mutex
	turn    sync.Cond // broadcast whenever an accumulator is freed
	free    []Accum   // accumulators no shard holds
	next    int       // the next shard a worker takes
	total   Accum     // shard 0's accumulator, the running sum
	folded  int       // shards merged into total so far
	pending []Accum   // by shard: E-stepped, not yet merged
	merging bool      // a worker is in fold
}

// NewReducer returns a reducer over t with workers goroutines
// (non-positive means GOMAXPROCS).
func NewReducer(t Trainable, workers int) *Reducer {
	r := &Reducer{t: t, workers: model.Workers(workers)}
	r.turn.L = &r.mu
	return r
}

// Reduce E-steps users [lo, hi) cut into shards contiguous ranges
// (0 means DefaultShards) and returns the merged accumulator, which
// stays the reducer's: it is valid until the next Reduce.
//
// Each worker takes the next unstarted shard and a free accumulator,
// resets it and E-steps the shard into it. Shard 0's accumulator is the
// running total; every later shard is merged into it as soon as all
// earlier ones have been, by whichever worker completes that prefix,
// and its accumulator is freed. There are min(workers, shards) + 1
// accumulators, so a worker can run one shard ahead of the merge before
// it waits for one. The merge order is the shard order whatever the
// schedule.
func (r *Reducer) Reduce(lo, hi, shards int) Accum {
	n := hi - lo
	r.cuts = r.cuts[:0]
	model.CutRanges(n, shardCount(shards, n), func(_, a, b int) {
		r.cuts = append(r.cuts, [2]int{lo + a, lo + b})
	})
	workers := max(1, min(r.workers, len(r.cuts)))
	for len(r.accs) < workers+1 {
		r.accs = append(r.accs, r.t.NewAccum())
	}
	if cap(r.pending) < len(r.cuts) {
		r.pending = make([]Accum, len(r.cuts))
	}
	r.pending = r.pending[:len(r.cuts)]
	r.free = append(r.free[:0], r.accs...)
	r.next, r.folded, r.total = 0, 0, nil
	if workers == 1 {
		r.work() // inline: the serial path allocates nothing
	} else {
		model.ParallelRanges(workers, workers, func(_, _, _ int) { r.work() })
	}
	if r.total == nil { // an empty range
		r.total = r.accs[0]
		r.total.Reset()
	}
	return r.total
}

// work is one worker's loop: take a shard and a free accumulator,
// E-step the one into the other and hand it to fold, until no shard is
// left.
func (r *Reducer) work() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.next < len(r.cuts) {
		if len(r.free) == 0 {
			r.turn.Wait()
			continue
		}
		s, a := r.next, r.free[len(r.free)-1]
		r.next++
		r.free = r.free[:len(r.free)-1]
		r.mu.Unlock()
		a.Reset()
		r.t.EStep(a, r.cuts[s][0], r.cuts[s][1])
		r.mu.Lock()
		r.pending[s] = a
		r.fold()
	}
}

// fold merges, in shard order, every E-stepped shard whose predecessors
// are all merged, and frees its accumulator. One worker folds at a
// time, and it releases r.mu while it merges, so others can hand in
// shards meanwhile; r.mu is held on entry and on return.
func (r *Reducer) fold() {
	if r.merging {
		return
	}
	r.merging = true
	for r.folded < len(r.pending) && r.pending[r.folded] != nil {
		f, a := r.folded, r.pending[r.folded]
		r.pending[f] = nil
		if f == 0 {
			r.total = a
		} else {
			r.mu.Unlock()
			r.total.Merge(a)
			r.mu.Lock()
			r.free = append(r.free, a)
			r.turn.Broadcast()
		}
		r.folded++
	}
	r.merging = false
}

// Run executes the EM loop for t under cfg and returns the training
// statistics. When checkpointing is configured, t must also implement
// Checkpointable; with Checkpoint.Resume set, Run restores the latest
// snapshot (if one exists) and continues from it, producing parameters
// bit-identical to an uninterrupted run.
func Run(t Trainable, cfg Config) (model.TrainStats, error) {
	var stats model.TrainStats
	if err := cfg.validate(); err != nil {
		return stats, err
	}
	n := t.NumUsers()
	if n <= 0 {
		return stats, errors.New("train: no users to shard")
	}

	cp, err := newCheckpointer(t, cfg.Checkpoint)
	if err != nil {
		return stats, err
	}
	startIter := 0
	prevLL := math.Inf(-1)
	if cp != nil && cfg.Checkpoint.Resume {
		snap, ok, err := cp.load()
		if err != nil {
			return stats, err
		}
		if ok {
			startIter = snap.Iter
			prevLL = snap.PrevLL
			stats = snap.Stats
			stats.ResumedAt = snap.Iter
		}
	}

	r := NewReducer(t, cfg.Workers)
	for iter := startIter; iter < cfg.MaxIters; iter++ {
		eStart := time.Now()
		merged := r.Reduce(0, n, cfg.Shards)
		eDur := time.Since(eStart)

		mStart := time.Now()
		ll := t.MStep(merged)
		mDur := time.Since(mStart)

		var rel float64
		if iter > 0 {
			rel = math.Abs(ll-prevLL) / (math.Abs(prevLL) + 1e-12)
		}
		it := model.IterStat{
			Iter:          iter + 1,
			LogLikelihood: ll,
			Delta:         rel,
			EStep:         eDur,
			MStep:         mDur,
			Wall:          eDur + mDur,
		}
		stats.LogLikelihood = append(stats.LogLikelihood, ll)
		stats.Iters = append(stats.Iters, it)
		if cfg.Hook != nil {
			cfg.Hook(it)
		}
		if iter > 0 && rel < cfg.Tol {
			stats.Converged = true
			stats.StopReason = model.StopConverged
			break
		}
		prevLL = ll
		if cp != nil && (iter+1)%cp.every == 0 {
			if err := cp.save(iter+1, prevLL, stats); err != nil {
				return stats, err
			}
		}
	}
	if stats.StopReason == "" {
		stats.StopReason = model.StopMaxIters
	}
	return stats, nil
}
