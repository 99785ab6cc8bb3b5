package core

import (
	"math/rand"
	"strings"
	"testing"

	"tcam/internal/cuboid"
	"tcam/internal/model"
)

func smallWorld(tb testing.TB) *cuboid.Cuboid {
	tb.Helper()
	rng := rand.New(rand.NewSource(3))
	b := cuboid.NewBuilder(20, 4, 25)
	for u := 0; u < 20; u++ {
		for t := 0; t < 4; t++ {
			b.MustAdd(u, t, (u+t)%25, 1)
			b.MustAdd(u, t, rng.Intn(25), 1)
		}
	}
	return b.Build()
}

func fastOpts() Options {
	return Options{K1: 5, K2: 4, MaxIters: 5, Factors: 4, Epochs: 5, Burnin: 2, Samples: 2, Seed: 1, Workers: 2}
}

func TestTrainAllMethods(t *testing.T) {
	data := smallWorld(t)
	for _, m := range AllMethods() {
		m := m
		t.Run(string(m), func(t *testing.T) {
			res, err := Train(m, data, fastOpts())
			if err != nil {
				t.Fatal(err)
			}
			if res.Model == nil {
				t.Fatal("nil model")
			}
			if res.Model.Name() != string(m) && m != WITCAM && m != WTTCAM {
				t.Errorf("model name %q, method %q", res.Model.Name(), m)
			}
			if res.Model.NumItems() != 25 {
				t.Errorf("NumItems = %d", res.Model.NumItems())
			}
			if res.TrainTime <= 0 {
				t.Error("train time not recorded")
			}
			// Every model must produce a usable score.
			_ = res.Model.Score(0, 0, 0)
		})
	}
}

func TestWeightedVariantsDiffer(t *testing.T) {
	data := smallWorld(t)
	plain, err := Train(TTCAM, data, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := Train(WTTCAM, data, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if weighted.Model.Name() != "W-TTCAM" {
		t.Errorf("weighted label = %q", weighted.Model.Name())
	}
	same := true
	for v := 0; v < 25; v++ {
		if plain.Model.Score(0, 0, v) != weighted.Model.Score(0, 0, v) {
			same = false
			break
		}
	}
	if same {
		t.Error("weighted training produced identical scores; weighting had no effect")
	}
}

func TestMethodPredicates(t *testing.T) {
	if !WITCAM.Weighted() || !WTTCAM.Weighted() || TTCAM.Weighted() {
		t.Error("Weighted predicate wrong")
	}
}

func TestTrainUnknownMethod(t *testing.T) {
	if _, err := Train(Method("bogus"), smallWorld(t), fastOpts()); err == nil {
		t.Error("Train accepted an unknown method")
	}
}

func TestTimeSVDExtension(t *testing.T) {
	data := smallWorld(t)
	res, err := Train(TimeSVD, data, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Model.Name() != "timeSVD++" {
		t.Errorf("name = %q", res.Model.Name())
	}
	if _, ok := res.Model.(model.TopicScorer); ok {
		t.Error("timeSVD++ has no topic decomposition; TA must not apply")
	}
}

// TestEngineOptionsReachEveryEMMethod: the six EM methods train on one
// engine, so Hook sees every iteration of each, a negative Tol runs all
// MaxIters of each, and the stats say how the run ended; only the TCAM
// family checkpoints.
func TestEngineOptionsReachEveryEMMethod(t *testing.T) {
	data := smallWorld(t)
	for _, m := range []Method{UT, TT, ITCAM, TTCAM, WITCAM, WTTCAM} {
		opts := fastOpts()
		opts.MaxIters, opts.Tol = 7, -1
		var seen []int
		opts.Hook = func(it model.IterStat) { seen = append(seen, it.Iter) }
		res, err := Train(m, data, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != 7 || seen[6] != 7 || res.Stats.Iterations() != 7 || len(res.Stats.Iters) != 7 {
			t.Errorf("%s: hook saw iterations %v, stats record %d", m, seen, res.Stats.Iterations())
		}
		if res.Stats.StopReason != model.StopMaxIters || res.Stats.Converged {
			t.Errorf("%s: stop reason %q, converged %v; want max-iters", m, res.Stats.StopReason, res.Stats.Converged)
		}
	}
	for _, m := range []Method{UT, TT} {
		opts := fastOpts()
		opts.CheckpointDir = t.TempDir()
		if _, err := Train(m, data, opts); err == nil || !strings.Contains(err.Error(), "does not support checkpointing") {
			t.Errorf("%s: checkpointing err = %v", m, err)
		}
	}
}
