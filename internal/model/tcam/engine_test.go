package tcam

import (
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"testing"

	"tcam/internal/cuboid"
	"tcam/internal/faultinject"
	"tcam/internal/train"
)

// engineWorld is the frozen dataset behind testdata/*_prerefactor_*: the
// fixtures were generated from exactly this cuboid by the per-variant
// trainers that predate both the shared engine and this package
// (per-worker sharding, Workers=2), so these tests prove today's
// trainer reproduces that arithmetic bit-for-bit.
func engineWorld(tb testing.TB) *cuboid.Cuboid {
	tb.Helper()
	b := cuboid.NewBuilder(30, 6, 25)
	for u := 0; u < 30; u++ {
		for t := 0; t < 6; t++ {
			b.MustAdd(u, t, (u*3+t*7)%25, 1+float64((u+t)%4))
			b.MustAdd(u, t, (u+t*t)%25, 1)
			if (u+t)%3 == 0 {
				b.MustAdd(u, t, (u*5+t)%25, 2)
			}
		}
	}
	return b.Build()
}

// engineConfig mirrors the fixture generator's config, with the legacy
// Workers=2 sharding expressed as Shards=2 under the engine.
func engineConfig(v variant) Config {
	cfg := v.config(7, 5)
	cfg.MaxIters, cfg.Tol, cfg.Seed = 9, 1e-6, 11
	cfg.Shards = 2
	return cfg
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// params lists every parameter table of a model by name, the
// item-indexed ones V wide whatever stride the model keeps them at.
func params(m *Model) map[string][]float64 {
	return map[string][]float64{
		"theta": m.theta, "phi": compactRows(m.phi, m.stride, m.numItems), "context": m.ctx,
		"phiX": compactRows(m.phiX, m.stride, m.numItems), "lambda": m.lambda,
		"background": compactRows(m.background, m.stride, m.numItems),
	}
}

func assertSameModel(t *testing.T, label string, got, want *Model) {
	t.Helper()
	if got.k1 != want.k1 || got.k2 != want.k2 {
		t.Errorf("%s: K1/K2 = %d/%d, want %d/%d", label, got.k1, got.k2, want.k1, want.k2)
	}
	if math.Float64bits(got.backgroundW) != math.Float64bits(want.backgroundW) {
		t.Errorf("%s: background weight %v, want %v", label, got.backgroundW, want.backgroundW)
	}
	wantParams := params(want)
	for name, p := range params(got) {
		if !bitsEqual(p, wantParams[name]) {
			t.Errorf("%s: %s differs", label, name)
		}
	}
}

// cloneModel deep-copies a model, so a test can hold a snapshot that
// shares no memory with the code under test.
func cloneModel(m *Model) *Model {
	out := *m
	for _, p := range []*[]float64{&out.theta, &out.phi, &out.ctx, &out.phiX, &out.lambda, &out.background} {
		if *p != nil {
			*p = append([]float64(nil), *p...)
		}
	}
	return &out
}

func loadModel(t *testing.T, path string) *Model {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := Read(f)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// fixturePrefix names the variant's files under testdata/.
func (v variant) fixturePrefix() string {
	switch {
	case !v.topics:
		return "testdata/itcam_prerefactor_"
	case v.background > 0:
		return "testdata/ttcam_prerefactor_bg_"
	default:
		return "testdata/ttcam_prerefactor_"
	}
}

// TestMatchesPreRefactorFixture pins the central guarantee for every
// variant: the trainer with Shards=2 reproduces the original trainers'
// Workers=2 runs — captured in testdata before any refactor —
// bit-for-bit, parameters and log-likelihood trace alike, regardless of
// how many goroutines execute the shards.
func TestMatchesPreRefactorFixture(t *testing.T) {
	forVariants(t, func(t *testing.T, v variant) {
		want := loadModel(t, v.fixturePrefix()+"model.gob")
		lf, err := os.Open(v.fixturePrefix() + "ll.gob")
		if err != nil {
			t.Fatal(err)
		}
		defer lf.Close()
		var wantLL []float64
		if err := gob.NewDecoder(lf).Decode(&wantLL); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			cfg := engineConfig(v)
			cfg.Workers = workers
			got, stats, err := Train(engineWorld(t), cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameModel(t, fmt.Sprintf("workers=%d", workers), got, want)
			if !bitsEqual(stats.LogLikelihood, wantLL) {
				t.Errorf("workers=%d: LL trace differs from pre-refactor fixture", workers)
			}
		}
	})
}

// TestWorkerCountInvariance is the property the engine's fixed-shard
// design buys: parameters depend on Shards, never on Workers.
func TestWorkerCountInvariance(t *testing.T) {
	forVariants(t, func(t *testing.T, v variant) {
		data := engineWorld(t)
		cfg := engineConfig(v)
		cfg.Workers = 1
		ref, refStats, err := Train(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 8
		got, gotStats, err := Train(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertSameModel(t, "workers 1 vs 8", got, ref)
		if !bitsEqual(gotStats.LogLikelihood, refStats.LogLikelihood) {
			t.Error("workers 1 vs 8: LL traces differ")
		}
	})
}

// TestShardCountInvariance is the Section 3.2.3 MapReduce claim: the
// shard count regroups the floating-point sums and nothing else, so any
// partition of the users learns the single-shard model to tolerance.
func TestShardCountInvariance(t *testing.T) {
	forVariants(t, func(t *testing.T, v variant) {
		data := engineWorld(t)
		cfg := engineConfig(v)
		cfg.Shards = 1
		ref, refStats, err := Train(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 6} {
			cfg.Shards = shards
			got, stats, err := Train(data, cfg)
			if err != nil {
				t.Fatal(err)
			}
			refParams := params(ref)
			for name, p := range params(got) {
				for i := range p {
					if math.Abs(p[i]-refParams[name][i]) > 1e-9 {
						t.Fatalf("shards=%d: %s[%d] differs from the single-shard run", shards, name, i)
					}
				}
			}
			for i, ll := range stats.LogLikelihood {
				if math.Abs(ll-refStats.LogLikelihood[i]) > 1e-6 {
					t.Fatalf("shards=%d: round %d LL %v, single-shard %v", shards, i, ll, refStats.LogLikelihood[i])
				}
			}
		}
	})
}

// TestTolStopsEarly pins the engine's Tol early-stop: a converged run
// must stop before MaxIters with the converged stop reason, and a Tol=0
// run must burn every iteration.
func TestTolStopsEarly(t *testing.T) {
	forVariants(t, func(t *testing.T, v variant) {
		data := engineWorld(t)
		cfg := engineConfig(v)
		cfg.MaxIters = 400
		cfg.Tol = 1e-6
		_, stats, err := Train(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Converged || stats.StopReason != "converged" {
			t.Fatalf("stats = %+v, want converged", stats)
		}
		if stats.Iterations() >= cfg.MaxIters {
			t.Fatalf("converged run burned all %d iterations", stats.Iterations())
		}

		cfg.MaxIters = 12
		cfg.Tol = 0
		_, stats, err = Train(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Converged || stats.Iterations() != 12 {
			t.Fatalf("Tol=0 run stopped early: %+v", stats)
		}
	})
}

// TestCheckpointResumeBitIdentical interrupts training at several
// checkpoint boundaries — via an injected panic right after the
// snapshot lands, the way a real crash would hit — and proves resuming
// always converges to the exact parameters of the uninterrupted run.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	defer faultinject.Reset()
	forVariants(t, func(t *testing.T, v variant) {
		data := engineWorld(t)
		ref, refStats, err := Train(data, engineConfig(v))
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct{ every, killAfter int }{{1, 1}, {1, 4}, {1, 8}, {2, 2}, {2, 6}} {
			t.Run(fmt.Sprintf("every-%d-kill-after-%d", tc.every, tc.killAfter), func(t *testing.T) {
				cfg := engineConfig(v)
				cfg.Checkpoint = train.CheckpointConfig{Dir: t.TempDir(), Every: tc.every}

				var saves int
				faultinject.Set("train.checkpoint.saved", func() {
					saves++
					if saves*tc.every == tc.killAfter {
						panic("tcam test: injected crash after checkpoint")
					}
				})
				func() {
					defer func() {
						if recover() == nil {
							t.Fatal("injected crash did not fire")
						}
					}()
					_, _, _ = Train(data, cfg)
				}()
				faultinject.Clear("train.checkpoint.saved")

				cfg.Checkpoint.Resume = true
				got, stats, err := Train(data, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if stats.ResumedAt != tc.killAfter {
					t.Fatalf("ResumedAt = %d, want %d", stats.ResumedAt, tc.killAfter)
				}
				assertSameModel(t, "resumed", got, ref)
				if !bitsEqual(stats.LogLikelihood, refStats.LogLikelihood) {
					t.Error("resumed LL trace differs from uninterrupted run")
				}
			})
		}
	})
}

// TestCheckpointRejected: training must fail loudly rather than resume
// from a damaged snapshot, or from one taken under other dimensions.
func TestCheckpointRejected(t *testing.T) {
	forVariants(t, func(t *testing.T, v variant) {
		data := engineWorld(t)
		dir := t.TempDir()
		cfg := engineConfig(v)
		cfg.MaxIters = 3
		cfg.Checkpoint = train.CheckpointConfig{Dir: dir, Every: 1}
		if _, _, err := Train(data, cfg); err != nil {
			t.Fatal(err)
		}
		cfg.Checkpoint.Resume = true
		other := cfg
		other.K1++
		if _, _, err := Train(data, other); err == nil {
			t.Error("checkpoint with a different K1 resumed silently")
		}

		path := dir + "/train.ckpt"
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x55
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Train(data, cfg); err == nil {
			t.Fatal("corrupted checkpoint resumed silently")
		}
	})
}
