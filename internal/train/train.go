// Package train is the one EM training engine. Its clients are
// internal/model/tcam's batch training (Run over users), its streaming
// fold-in (FoldIn over the new users) and internal/model/plsa's UT and
// TT baselines (Run over documents) — all six EM methods of Section 5.2
// iterate here. The loop has the MapReduce shape the paper notes in
// Section 3.2.3 — user-sharded E-steps (map), an ordered accumulator
// merge (reduce), one M-step — and the engine owns everything about it
// that is not model math:
//
//   - the iteration driver — deterministic user-range sharding, a worker
//     pool executing shards, and an ordered accumulator merge, so the
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
// (users, shards) pair, each shard owns its own accumulator, and merge
// always folds shard s+1 into shard s's accumulator in ascending order.
// Workers only decide how many goroutines execute the shards; results
// never depend on it, nor on OS scheduling.
package train

import (
	"errors"
	"fmt"
	"math"
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

// Accum is one shard's sufficient-statistic slab set. The engine resets
// every accumulator at the start of an iteration, runs the E-step into
// each, then merges them in ascending shard order.
type Accum interface {
	// Reset clears the accumulator for the next iteration. Reset calls
	// are sequential (never concurrent with each other or the E-step).
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
	// NewAccum allocates the accumulator for shard (its user range is
	// [lo, hi)). Called once per shard before the first iteration, in
	// ascending shard order.
	NewAccum(shard, lo, hi int) Accum
	// EStep scans the accumulator's user range, adding sufficient
	// statistics (and the range's log-likelihood term) into it. Calls
	// for different shards may run concurrently.
	EStep(a Accum)
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

// sharded is the surface batch training (Trainable) and fold-in
// (UserFolder) share: the shard machinery below needs only this much.
type sharded interface {
	NewAccum(shard, lo, hi int) Accum
	EStep(a Accum)
}

// newAccums cuts the n users from base on into shardCount's contiguous
// ranges of ceil(n/shards) and allocates each range's accumulator, in
// ascending shard order.
func newAccums(t sharded, base, n, shards int) []Accum {
	shards = shardCount(shards, n)
	out := make([]Accum, 0, shards)
	model.CutRanges(n, shards, func(i, lo, hi int) {
		out = append(out, t.NewAccum(i, base+lo, base+hi))
	})
	return out
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

	accums := newAccums(t, 0, n, cfg.Shards)
	workers := model.Workers(cfg.Workers)
	for iter := startIter; iter < cfg.MaxIters; iter++ {
		eStart := time.Now()
		merged := runShards(t, accums, workers)
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

// runShards is one iteration's map and reduce: it resets every
// accumulator, executes the E-step of each across the worker pool
// (never more goroutines than shards) and returns the first with the
// rest folded into it. Each shard writes only its own accumulator (plus
// disjoint user-sharded rows of any state the model shares between
// them), so execution order is irrelevant; determinism comes from the
// merge, always in ascending shard order.
func runShards(t sharded, accums []Accum, workers int) Accum {
	for _, a := range accums {
		a.Reset()
	}
	if workers <= 1 || len(accums) == 1 {
		for _, a := range accums {
			t.EStep(a)
		}
	} else {
		model.ParallelRanges(len(accums), workers, func(_, lo, hi int) {
			for s := lo; s < hi; s++ {
				t.EStep(accums[s])
			}
		})
	}
	for _, a := range accums[1:] {
		accums[0].Merge(a)
	}
	return accums[0]
}
