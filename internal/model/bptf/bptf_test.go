package bptf

import (
	"math"
	"math/rand"
	"testing"

	"tcam/internal/cuboid"
)

// ratedWorld builds a 1–5 star world with two user camps over two item
// groups, plus a temporal drift: in late intervals camp A's items gain a
// star for everyone.
func ratedWorld(tb testing.TB) *cuboid.Cuboid {
	tb.Helper()
	rng := rand.New(rand.NewSource(10))
	b := cuboid.NewBuilder(24, 4, 16)
	for u := 0; u < 24; u++ {
		loves := 0
		if u >= 12 {
			loves = 8
		}
		for t := 0; t < 4; t++ {
			for k := 0; k < 4; k++ {
				v := rng.Intn(16)
				score := 2.0
				if (v < 8) == (loves == 0) {
					score = 4.5
				}
				if t >= 2 && v < 8 {
					score += 0.5
				}
				b.MustAdd(u, t, v, score)
			}
		}
	}
	return b.Build()
}

func trainBPTF(tb testing.TB) *Model {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Factors = 6
	cfg.Burnin = 8
	cfg.Samples = 6
	cfg.Workers = 2
	cfg.NegativeRatio = 0 // explicit ratings: reconstruct, don't rank
	m, _, err := Train(ratedWorld(tb), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func TestTrainValidation(t *testing.T) {
	good := ratedWorld(t)
	bad := []func(*Config){
		func(c *Config) { c.Factors = 0 },
		func(c *Config) { c.Burnin = -1 },
		func(c *Config) { c.Samples = 0 },
		func(c *Config) { c.NegativeRatio = -1 },
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

func TestSampleCount(t *testing.T) {
	m := trainBPTF(t)
	if got := len(m.uSamples); got != 6 {
		t.Errorf("retained %d Gibbs samples, want 6", got)
	}
}

func TestReconstructsPreferences(t *testing.T) {
	m := trainBPTF(t)
	// Camp A (users < 12) loves items < 8; camp B loves items >= 8.
	avg := func(u, lo, hi, tt int) float64 {
		var s float64
		for v := lo; v < hi; v++ {
			s += m.Score(u, tt, v)
		}
		return s / float64(hi-lo)
	}
	for _, u := range []int{0, 5, 11} {
		if avg(u, 0, 8, 1) <= avg(u, 8, 16, 1) {
			t.Errorf("camp-A user %d does not prefer camp-A items", u)
		}
	}
	for _, u := range []int{12, 18, 23} {
		if avg(u, 8, 16, 1) <= avg(u, 0, 8, 1) {
			t.Errorf("camp-B user %d does not prefer camp-B items", u)
		}
	}
}

func TestCapturesTemporalDrift(t *testing.T) {
	m := trainBPTF(t)
	// Items < 8 gain half a star in intervals 2–3 for everyone; the
	// average predicted score across users should reflect it.
	var early, late float64
	for u := 0; u < 24; u++ {
		for v := 0; v < 8; v++ {
			early += m.Score(u, 0, v) + m.Score(u, 1, v)
			late += m.Score(u, 2, v) + m.Score(u, 3, v)
		}
	}
	if late <= early {
		t.Errorf("temporal drift not captured: late %v ≤ early %v", late, early)
	}
}

func TestScoreAllMatchesScore(t *testing.T) {
	m := trainBPTF(t)
	scores := make([]float64, m.NumItems())
	for _, q := range [][2]int{{0, 0}, {13, 3}} {
		m.ScoreAll(q[0], q[1], scores)
		for v := range scores {
			if want := m.Score(q[0], q[1], v); math.Abs(scores[v]-want) > 1e-10 {
				t.Fatalf("ScoreAll(%d,%d)[%d] = %v, Score = %v", q[0], q[1], v, scores[v], want)
			}
		}
	}
}

func TestPredictionsFinite(t *testing.T) {
	m := trainBPTF(t)
	for u := 0; u < 24; u += 5 {
		for tt := 0; tt < 4; tt++ {
			for v := 0; v < 16; v += 3 {
				if s := m.Score(u, tt, v); math.IsNaN(s) || math.IsInf(s, 0) {
					t.Fatalf("Score(%d,%d,%d) = %v", u, tt, v, s)
				}
			}
		}
	}
}

func TestTrainingFitImproves(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Factors = 6
	cfg.Burnin = 10
	cfg.Samples = 5
	cfg.NegativeRatio = 0
	_, st, err := Train(ratedWorld(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The −α·SSE/2 trace is stochastic; compare the first sweep against
	// the mean of the retained sweeps (fit must improve after burn-in).
	head := st.LogLikelihood[0]
	var tail float64
	n := 0
	for _, x := range st.LogLikelihood[cfg.Burnin:] {
		tail += x
		n++
	}
	tail /= float64(n)
	if tail <= head {
		t.Errorf("Gibbs fit did not improve: first %v, post-burn-in mean %v", head, tail)
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	data := ratedWorld(t)
	cfg := DefaultConfig()
	cfg.Factors = 4
	cfg.Burnin = 2
	cfg.Samples = 2
	cfg.Workers = 1
	m1, _, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	m4, _, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := range m1.uSamples {
		for i := range m1.uSamples[s] {
			if math.Abs(m1.uSamples[s][i]-m4.uSamples[s][i]) > 1e-12 {
				t.Fatal("per-entity seeding broke worker-count determinism for U")
			}
		}
		for i := range m1.vSamples[s] {
			if math.Abs(m1.vSamples[s][i]-m4.vSamples[s][i]) > 1e-12 {
				t.Fatal("per-entity seeding broke worker-count determinism for V")
			}
		}
	}
}

// implicitWorld: binary feedback where camp membership decides what a
// user touches; without negative sampling BPTF cannot rank here.
func implicitWorld(tb testing.TB) *cuboid.Cuboid {
	tb.Helper()
	rng := rand.New(rand.NewSource(11))
	b := cuboid.NewBuilder(30, 3, 20)
	for u := 0; u < 30; u++ {
		base := 0
		if u >= 15 {
			base = 10
		}
		for t := 0; t < 3; t++ {
			for k := 0; k < 3; k++ {
				b.MustAdd(u, t, base+rng.Intn(10), 1)
			}
		}
	}
	return b.Build()
}

func TestNegativeSamplingEnablesImplicitRanking(tt *testing.T) {
	cfg := DefaultConfig()
	cfg.Factors = 6
	cfg.Burnin = 8
	cfg.Samples = 6
	cfg.NegativeRatio = 2
	m, _, err := Train(implicitWorld(tt), cfg)
	if err != nil {
		tt.Fatal(err)
	}
	avg := func(u, lo, hi int) float64 {
		var s float64
		for v := lo; v < hi; v++ {
			s += m.Score(u, 1, v)
		}
		return s / float64(hi-lo)
	}
	for _, u := range []int{0, 7, 14} {
		if avg(u, 0, 10) <= avg(u, 10, 20) {
			tt.Errorf("camp-A user %d does not rank camp-A items above camp-B", u)
		}
	}
	for _, u := range []int{15, 25, 29} {
		if avg(u, 10, 20) <= avg(u, 0, 10) {
			tt.Errorf("camp-B user %d does not rank camp-B items above camp-A", u)
		}
	}
}
