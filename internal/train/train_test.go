package train

import (
	"encoding/gob"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tcam/internal/model"
)

// fakeAccum sums the values of its user range.
type fakeAccum struct {
	lo, hi int
	sum    float64
}

func (a *fakeAccum) Reset() { a.sum = 0 }
func (a *fakeAccum) Merge(src Accum) {
	a.sum += src.(*fakeAccum).sum
}

// fakeModel is a deterministic Trainable: each E-step sums per-user
// values, each M-step advances an iteration counter that drives a
// converging log-likelihood sequence ll_k = -100/k. It checkpoints the
// counter, so resume equivalence is observable.
type fakeModel struct {
	users int
	vals  []float64
	// steps counts applied M-steps; it is the full mutable state.
	steps int
	// lastMerged records what the M-step saw, for sharding assertions.
	lastMerged float64
}

func newFakeModel(users int) *fakeModel {
	m := &fakeModel{users: users, vals: make([]float64, users)}
	for u := range m.vals {
		m.vals[u] = float64(u%7) + 0.25
	}
	return m
}

func (m *fakeModel) NumUsers() int { return m.users }
func (m *fakeModel) NewAccum(_, lo, hi int) Accum {
	return &fakeAccum{lo: lo, hi: hi}
}
func (m *fakeModel) EStep(a Accum) {
	acc := a.(*fakeAccum)
	for u := acc.lo; u < acc.hi; u++ {
		acc.sum += m.vals[u]
	}
}
func (m *fakeModel) MStep(merged Accum) float64 {
	m.lastMerged = merged.(*fakeAccum).sum
	m.steps++
	return -100.0 / float64(m.steps)
}

func (m *fakeModel) EncodeParams(w io.Writer) error {
	return gob.NewEncoder(w).Encode(m.steps)
}
func (m *fakeModel) DecodeParams(r io.Reader) error {
	return gob.NewDecoder(r).Decode(&m.steps)
}

// plainModel is a Trainable without checkpoint support.
type plainModel struct{ fakeModel }

func (m *plainModel) EncodeParams() {} // shadow away the interface

// shardRange is one contiguous user range [Lo, Hi); shardRanges lists
// the ranges newAccums hands a model's NewAccum, in shard order.
type shardRange struct{ Lo, Hi int }

func shardRanges(n, shards int) []shardRange {
	var out []shardRange
	for _, a := range newAccums(newFakeModel(n), 0, n, shards) {
		out = append(out, shardRange{a.(*fakeAccum).lo, a.(*fakeAccum).hi})
	}
	return out
}

func TestShardRanges(t *testing.T) {
	cases := []struct {
		n, shards int
		want      []shardRange
	}{
		{10, 3, []shardRange{{0, 4}, {4, 8}, {8, 10}}},
		{10, 4, []shardRange{{0, 3}, {3, 6}, {6, 9}, {9, 10}}},
		{3, 8, []shardRange{{0, 1}, {1, 2}, {2, 3}}},
		{5, 1, []shardRange{{0, 5}}},
		{0, 4, nil},
		{16, 0, []shardRange{{0, 2}, {2, 4}, {4, 6}, {6, 8}, {8, 10}, {10, 12}, {12, 14}, {14, 16}}},
	}
	for _, c := range cases {
		got := shardRanges(c.n, c.shards)
		if len(got) != len(c.want) {
			t.Fatalf("shardRanges(%d, %d) = %v, want %v", c.n, c.shards, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("shardRanges(%d, %d) = %v, want %v", c.n, c.shards, got, c.want)
			}
		}
	}
}

// Shard boundaries depend only on (n, shards): for any (n, s),
// shardRanges(n, s) is exactly the ranges ParallelRanges hands to s
// workers, whatever else the config says.
func TestShardRangesMatchParallelRanges(t *testing.T) {
	for _, n := range []int{1, 2, 7, 30, 100, 1000} {
		for _, s := range []int{1, 2, 3, 4, 8, 16} {
			var mu sync.Mutex
			var want []shardRange
			model.ParallelRanges(n, s, func(_, lo, hi int) {
				mu.Lock()
				want = append(want, shardRange{lo, hi})
				mu.Unlock()
			})
			// ParallelRanges runs workers concurrently; order by Lo.
			for i := 0; i < len(want); i++ {
				for j := i + 1; j < len(want); j++ {
					if want[j].Lo < want[i].Lo {
						want[i], want[j] = want[j], want[i]
					}
				}
			}
			got := shardRanges(n, s)
			if len(got) != len(want) {
				t.Fatalf("n=%d s=%d: engine %v vs want %v", n, s, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d s=%d: engine %v vs want %v", n, s, got, want)
				}
			}
		}
	}
}

func TestRunMaxIters(t *testing.T) {
	m := newFakeModel(30)
	stats, err := Run(m, Config{MaxIters: 5, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iterations() != 5 || stats.Converged || stats.StopReason != model.StopMaxIters {
		t.Fatalf("stats = %+v, want 5 max-iters iterations", stats)
	}
	if len(stats.Iters) != 5 {
		t.Fatalf("len(Iters) = %d, want 5", len(stats.Iters))
	}
	for i, it := range stats.Iters {
		if it.Iter != i+1 {
			t.Fatalf("Iters[%d].Iter = %d, want %d", i, it.Iter, i+1)
		}
		if it.LogLikelihood != stats.LogLikelihood[i] {
			t.Fatalf("Iters[%d] LL mismatch", i)
		}
	}
	// Every shard's partial sum must have arrived at the M-step.
	var want float64
	for _, v := range m.vals {
		want += v
	}
	if math.Abs(m.lastMerged-want) > 1e-9 {
		t.Fatalf("merged sum %v, want %v", m.lastMerged, want)
	}
}

func TestRunConverges(t *testing.T) {
	m := newFakeModel(30)
	stats, err := Run(m, Config{MaxIters: 100, Tol: 0.2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged || stats.StopReason != model.StopConverged {
		t.Fatalf("stats = %+v, want converged", stats)
	}
	if stats.Iterations() >= 100 {
		t.Fatalf("converged run burned all %d iterations", stats.Iterations())
	}
	last := stats.Iters[len(stats.Iters)-1]
	if last.Delta >= 0.2 {
		t.Fatalf("final Delta %v not under Tol", last.Delta)
	}
}

func TestRunHookOrder(t *testing.T) {
	m := newFakeModel(10)
	var seen []int
	_, err := Run(m, Config{MaxIters: 4, Hook: func(it model.IterStat) {
		seen = append(seen, it.Iter)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("hook fired %d times, want 4", len(seen))
	}
	for i, v := range seen {
		if v != i+1 {
			t.Fatalf("hook order %v", seen)
		}
	}
}

func TestRunValidation(t *testing.T) {
	m := newFakeModel(10)
	for name, cfg := range map[string]Config{
		"zero iters":         {MaxIters: 0},
		"negative tol":       {MaxIters: 1, Tol: -1},
		"resume without dir": {MaxIters: 1, Checkpoint: CheckpointConfig{Resume: true}},
	} {
		if _, err := Run(m, cfg); err == nil {
			t.Errorf("%s: Run accepted invalid config", name)
		}
	}
	if _, err := Run(newFakeModel(0), Config{MaxIters: 1}); err == nil {
		t.Error("Run accepted zero users")
	}
}

func TestCheckpointRequiresCheckpointable(t *testing.T) {
	m := &plainModel{*newFakeModel(10)}
	_, err := Run(m, Config{MaxIters: 1, Checkpoint: CheckpointConfig{Dir: t.TempDir()}})
	if err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("err = %v, want checkpoint-support error", err)
	}
}

func TestCheckpointResumeBitIdentical(t *testing.T) {
	// Uninterrupted reference run.
	ref := newFakeModel(30)
	refStats, err := Run(ref, Config{MaxIters: 10, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: stop after 4 iterations (snapshot lands at 3),
	// then resume in a fresh model to the same horizon.
	dir := t.TempDir()
	first := newFakeModel(30)
	if _, err := Run(first, Config{MaxIters: 4, Shards: 3,
		Checkpoint: CheckpointConfig{Dir: dir, Every: 3}}); err != nil {
		t.Fatal(err)
	}
	resumed := newFakeModel(30)
	gotStats, err := Run(resumed, Config{MaxIters: 10, Shards: 3,
		Checkpoint: CheckpointConfig{Dir: dir, Every: 3, Resume: true}})
	if err != nil {
		t.Fatal(err)
	}
	if gotStats.ResumedAt != 3 {
		t.Fatalf("ResumedAt = %d, want 3", gotStats.ResumedAt)
	}
	if resumed.steps != ref.steps {
		t.Fatalf("resumed state %d, reference %d", resumed.steps, ref.steps)
	}
	if len(gotStats.LogLikelihood) != len(refStats.LogLikelihood) {
		t.Fatalf("LL trace lengths %d vs %d", len(gotStats.LogLikelihood), len(refStats.LogLikelihood))
	}
	for i := range refStats.LogLikelihood {
		if math.Float64bits(gotStats.LogLikelihood[i]) != math.Float64bits(refStats.LogLikelihood[i]) {
			t.Fatalf("LL[%d]: resumed %v vs reference %v", i, gotStats.LogLikelihood[i], refStats.LogLikelihood[i])
		}
	}
	for i := range refStats.Iters {
		if gotStats.Iters[i].Iter != refStats.Iters[i].Iter ||
			math.Float64bits(gotStats.Iters[i].Delta) != math.Float64bits(refStats.Iters[i].Delta) {
			t.Fatalf("Iters[%d]: resumed %+v vs reference %+v", i, gotStats.Iters[i], refStats.Iters[i])
		}
	}
}

func TestResumeWithoutSnapshotStartsFresh(t *testing.T) {
	m := newFakeModel(10)
	stats, err := Run(m, Config{MaxIters: 3,
		Checkpoint: CheckpointConfig{Dir: t.TempDir(), Resume: true}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ResumedAt != 0 || stats.Iterations() != 3 {
		t.Fatalf("stats = %+v, want fresh 3-iteration run", stats)
	}
}

func TestCorruptCheckpointFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	m := newFakeModel(10)
	if _, err := Run(m, Config{MaxIters: 2,
		Checkpoint: CheckpointConfig{Dir: dir, Every: 1}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, checkpointFileName)

	t.Run("garbage", func(t *testing.T) {
		if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Run(newFakeModel(10), Config{MaxIters: 4,
			Checkpoint: CheckpointConfig{Dir: dir, Resume: true}})
		if err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("err = %v, want corrupt-checkpoint error", err)
		}
	})

	t.Run("truncated", func(t *testing.T) {
		m := newFakeModel(10)
		if _, err := Run(m, Config{MaxIters: 2,
			Checkpoint: CheckpointConfig{Dir: dir, Every: 1}}); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Run(newFakeModel(10), Config{MaxIters: 4,
			Checkpoint: CheckpointConfig{Dir: dir, Resume: true}})
		if err == nil {
			t.Fatal("truncated checkpoint resumed silently")
		}
	})

	t.Run("bit flip", func(t *testing.T) {
		m := newFakeModel(10)
		if _, err := Run(m, Config{MaxIters: 2,
			Checkpoint: CheckpointConfig{Dir: dir, Every: 1}}); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-3] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Run(newFakeModel(10), Config{MaxIters: 4,
			Checkpoint: CheckpointConfig{Dir: dir, Resume: true}})
		if err == nil {
			t.Fatal("bit-flipped checkpoint resumed silently")
		}
	})
}

func TestWorkerCountInvariance(t *testing.T) {
	results := make([]float64, 0, 3)
	for _, workers := range []int{1, 3, 8} {
		m := newFakeModel(100)
		if _, err := Run(m, Config{MaxIters: 3, Shards: 8, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		results = append(results, m.lastMerged)
	}
	for i := 1; i < len(results); i++ {
		if math.Float64bits(results[i]) != math.Float64bits(results[0]) {
			t.Fatalf("workers changed the merged sum: %v", results)
		}
	}
}

func TestClampLambda(t *testing.T) {
	for _, c := range []struct{ in, want float64 }{
		{-1, LambdaClamp}, {0, LambdaClamp}, {0.005, LambdaClamp},
		{0.5, 0.5}, {0.995, 1 - LambdaClamp}, {2, 1 - LambdaClamp},
	} {
		if got := ClampLambda(c.in); got != c.want {
			t.Errorf("ClampLambda(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMergeInto(t *testing.T) {
	dst := []float64{1, 2, 3}
	MergeInto(dst, []float64{10, 20, 30})
	if dst[0] != 11 || dst[1] != 22 || dst[2] != 33 {
		t.Fatalf("MergeInto = %v", dst)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	MergeInto(dst, []float64{1})
}

func TestZero(t *testing.T) {
	s := []float64{1, 2, 3}
	Zero(s)
	for _, x := range s {
		if x != 0 {
			t.Fatalf("Zero left %v", s)
		}
	}
}
