package bprmf

import (
	"math"
	"math/rand"
	"testing"

	"tcam/internal/cuboid"
)

// twoCampWorld: users 0..14 rate items 0..9, users 15..29 rate items
// 10..19. Factorization must separate the camps.
func twoCampWorld(tb testing.TB) *cuboid.Cuboid {
	tb.Helper()
	rng := rand.New(rand.NewSource(8))
	b := cuboid.NewBuilder(30, 2, 20)
	for u := 0; u < 30; u++ {
		base := 0
		if u >= 15 {
			base = 10
		}
		for k := 0; k < 6; k++ {
			b.MustAdd(u, rng.Intn(2), base+rng.Intn(10), 1)
		}
	}
	return b.Build()
}

func trainBPR(tb testing.TB) *Model {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Factors = 8
	cfg.Epochs = 60
	m, _, err := Train(twoCampWorld(tb), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func TestTrainValidation(t *testing.T) {
	good := twoCampWorld(t)
	bad := []func(*Config){
		func(c *Config) { c.Factors = 0 },
		func(c *Config) { c.Epochs = 0 },
		func(c *Config) { c.LearnRate = 0 },
	}
	for i, mod := range bad {
		cfg := DefaultConfig()
		mod(&cfg)
		if _, _, err := Train(good, cfg); err == nil {
			t.Errorf("case %d: Train accepted invalid config", i)
		}
	}
	if _, _, err := Train(cuboid.NewBuilder(1, 1, 1).Build(), DefaultConfig()); err == nil {
		t.Error("Train accepted empty cuboid")
	}
}

func TestCampsSeparate(t *testing.T) {
	m := trainBPR(t)
	// Average in-camp score must exceed cross-camp score for both camps.
	avg := func(u, lo, hi int) float64 {
		var s float64
		for v := lo; v < hi; v++ {
			s += m.Score(u, 0, v)
		}
		return s / float64(hi-lo)
	}
	for _, u := range []int{0, 7, 14} {
		if avg(u, 0, 10) <= avg(u, 10, 20) {
			t.Errorf("camp-A user %d prefers camp-B items", u)
		}
	}
	for _, u := range []int{15, 22, 29} {
		if avg(u, 10, 20) <= avg(u, 0, 10) {
			t.Errorf("camp-B user %d prefers camp-A items", u)
		}
	}
}

func TestScoreIgnoresTime(t *testing.T) {
	m := trainBPR(t)
	for v := 0; v < 20; v += 3 {
		if m.Score(5, 0, v) != m.Score(5, 1, v) {
			t.Fatal("BPRMF score depends on interval")
		}
	}
}

func TestScoreAllMatchesScore(t *testing.T) {
	m := trainBPR(t)
	scores := make([]float64, m.NumItems())
	m.ScoreAll(17, 0, scores)
	for v := range scores {
		if want := m.Score(17, 0, v); math.Abs(scores[v]-want) > 1e-12 {
			t.Fatalf("ScoreAll[%d] = %v, Score = %v", v, scores[v], want)
		}
	}
}

func TestObjectiveImproves(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Factors = 8
	cfg.Epochs = 40
	_, st, err := Train(twoCampWorld(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// SGD is noisy; require the mean of the last 5 epochs to beat the
	// first epoch's objective (higher = better since it's Σ ln σ).
	var tail float64
	for _, x := range st.LogLikelihood[len(st.LogLikelihood)-5:] {
		tail += x
	}
	tail /= 5
	if tail <= st.LogLikelihood[0] {
		t.Errorf("BPR objective did not improve: first %v, tail mean %v", st.LogLikelihood[0], tail)
	}
}

func TestDeterministicTraining(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Factors = 4
	cfg.Epochs = 5
	data := twoCampWorld(t)
	m1, _, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.p {
		if m1.p[i] != m2.p[i] {
			t.Fatal("same seed, different factors")
		}
	}
}

func TestFactorsFiniteUnderLongTraining(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Factors = 8
	cfg.Epochs = 200
	cfg.LearnRate = 0.1
	m, _, err := Train(twoCampWorld(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range m.p {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatal("user factors diverged")
		}
	}
	for _, x := range m.q {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatal("item factors diverged")
		}
	}
}
