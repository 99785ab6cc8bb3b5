package plsa

import (
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"tcam/internal/cuboid"
	"tcam/internal/model"
)

// interestWorld: each user sticks to a small pet-item set across all
// intervals.
func interestWorld() *cuboid.Cuboid {
	rng := rand.New(rand.NewSource(4))
	b := cuboid.NewBuilder(30, 6, 30)
	for u := 0; u < 30; u++ {
		pet := (u % 6) * 5
		for t := 0; t < 6; t++ {
			b.MustAdd(u, t, pet, 1)
			b.MustAdd(u, t, pet+1, 1)
			if rng.Float64() < 0.3 {
				b.MustAdd(u, t, rng.Intn(30), 1)
			}
		}
	}
	return b.Build()
}

// trendOnlyWorld: everyone rates the per-interval hot pair, regardless
// of identity.
func trendOnlyWorld() *cuboid.Cuboid {
	rng := rand.New(rand.NewSource(6))
	b := cuboid.NewBuilder(30, 6, 20)
	for u := 0; u < 30; u++ {
		for t := 0; t < 6; t++ {
			hot := t * 3
			b.MustAdd(u, t, hot, 1)
			if rng.Float64() < 0.6 {
				b.MustAdd(u, t, hot+1, 1)
			}
			if rng.Float64() < 0.2 {
				b.MustAdd(u, t, rng.Intn(20), 1)
			}
		}
	}
	return b.Build()
}

// baseline is one row of the table every test below runs over: an axis
// and the world whose structure only that axis can see.
type baseline struct {
	name  string // the model's label, and the fixture files' prefix
	axis  Axis
	world func() *cuboid.Cuboid
	// promoted lists (u, t, better, worse): the model must score item
	// better above item worse for the query (u, t).
	promoted [][4]int
}

func baselines() []baseline {
	ut := baseline{name: "UT", axis: Users, world: interestWorld, promoted: [][4]int{
		{0, 0, 0, 17}, // user 0's pets are items 0 and 1
		{7, 0, 5, 0},  // user 7 (pets 5, 6) ranks item 5 over user 0's pet
	}}
	tt := baseline{name: "TT", axis: Intervals, world: trendOnlyWorld}
	for t := 0; t < 6; t++ {
		// Each interval's hot item outranks the hot item three intervals on.
		tt.promoted = append(tt.promoted, [4]int{0, t, t * 3, ((t + 3) % 6) * 3})
	}
	return []baseline{ut, tt}
}

func forBaselines(t *testing.T, fn func(t *testing.T, b baseline)) {
	for _, b := range baselines() {
		t.Run(b.name, func(t *testing.T) { fn(t, b) })
	}
}

func (b baseline) config() Config {
	cfg := DefaultConfig(b.axis)
	cfg.K = 8
	cfg.MaxIters = 40
	return cfg
}

func (b baseline) train(tb testing.TB) *Model {
	tb.Helper()
	cfg := b.config()
	cfg.Workers = 2
	m, _, err := Train(b.world(), b.axis, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func TestDefaultConfigTopicCounts(t *testing.T) {
	if k1, k2 := DefaultConfig(Users).K, DefaultConfig(Intervals).K; k1 != 60 || k2 != 40 {
		t.Errorf("default K = %d/%d, paper uses K1=60, K2=40", k1, k2)
	}
}

func TestTrainValidation(t *testing.T) {
	forBaselines(t, func(t *testing.T, b baseline) {
		good := b.world()
		bad := []func(*Config){
			func(c *Config) { c.K = 0 },
			func(c *Config) { c.LambdaB = 1 },
			func(c *Config) { c.LambdaB = -0.1 },
			func(c *Config) { c.MaxIters = 0 },
			func(c *Config) { c.Smoothing = -1 },
		}
		for i, mod := range bad {
			cfg := DefaultConfig(b.axis)
			mod(&cfg)
			if _, _, err := Train(good, b.axis, cfg); err == nil {
				t.Errorf("case %d: Train accepted invalid config", i)
			}
		}
		if _, _, err := Train(cuboid.NewBuilder(1, 1, 1).Build(), b.axis, DefaultConfig(b.axis)); err == nil {
			t.Error("Train accepted empty cuboid")
		}
	})
}

func TestLogLikelihoodMonotone(t *testing.T) {
	forBaselines(t, func(t *testing.T, b baseline) {
		_, st, err := Train(b.world(), b.axis, b.config())
		if err != nil {
			t.Fatal(err)
		}
		if st.Iterations() < 2 {
			t.Fatal("too few iterations")
		}
		for i := 1; i < st.Iterations(); i++ {
			if st.LogLikelihood[i] < st.LogLikelihood[i-1]-math.Abs(st.LogLikelihood[i-1])*1e-8 {
				t.Fatalf("LL decreased at iter %d", i)
			}
		}
	})
}

// TestConverges: with the default tolerance EM stops early on these
// worlds and says so.
func TestConverges(t *testing.T) {
	forBaselines(t, func(t *testing.T, b baseline) {
		cfg := b.config()
		cfg.MaxIters = 500
		_, st, err := Train(b.world(), b.axis, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Converged || st.StopReason != model.StopConverged || st.Iterations() == cfg.MaxIters {
			t.Errorf("no early stop: converged=%v (%q) after %d iterations", st.Converged, st.StopReason, st.Iterations())
		}
	})
}

// TestScoreIgnoresOtherAxis: UT's score does not depend on the
// interval, TT's does not depend on the user.
func TestScoreIgnoresOtherAxis(t *testing.T) {
	forBaselines(t, func(t *testing.T, b baseline) {
		m := b.train(t)
		if m.Name() != b.name {
			t.Errorf("Name() = %q, want %q", m.Name(), b.name)
		}
		for v := 0; v < m.NumItems(); v += 3 {
			a, c := m.Score(3, 0, v), m.Score(3, 5, v)
			if b.axis == Intervals {
				a, c = m.Score(0, 2, v), m.Score(29, 2, v)
			}
			if a != c {
				t.Fatalf("%s score depends on the other axis at v=%d", b.name, v)
			}
		}
	})
}

func TestDocumentItemsOutrankOthers(t *testing.T) {
	forBaselines(t, func(t *testing.T, b baseline) {
		m := b.train(t)
		for _, p := range b.promoted {
			if m.Score(p[0], p[1], p[2]) <= m.Score(p[0], p[1], p[3]) {
				t.Errorf("query (u=%d, t=%d): item %d not ranked above item %d", p[0], p[1], p[2], p[3])
			}
		}
	})
}

func TestScoreAllMatchesScore(t *testing.T) {
	forBaselines(t, func(t *testing.T, b baseline) {
		m := b.train(t)
		scores := make([]float64, m.NumItems())
		m.ScoreAll(11, 2, scores)
		for v := range scores {
			if want := m.Score(11, 2, v); math.Abs(scores[v]-want) > 1e-12 {
				t.Fatalf("ScoreAll[%d] = %v, Score = %v", v, scores[v], want)
			}
		}
	})
}

func TestDistributionsNormalized(t *testing.T) {
	sum := func(p []float64) float64 {
		var s float64
		for _, x := range p {
			s += x
		}
		return s
	}
	forBaselines(t, func(t *testing.T, b baseline) {
		m := b.train(t)
		for z := 0; z < m.K(); z++ {
			if s := sum(m.Topic(z)); math.Abs(s-1) > 1e-6 {
				t.Fatalf("topic %d sums to %v", z, s)
			}
		}
		for d := 0; d*m.k < len(m.theta); d++ {
			if s := sum(m.mixture(d, d)); math.Abs(s-1) > 1e-6 {
				t.Fatalf("document %d's mixture sums to %v", d, s)
			}
		}
		if s := sum(m.background); math.Abs(s-1) > 1e-6 {
			t.Fatalf("background sums to %v", s)
		}
	})
}

// fixture is what testdata/{ut,tt}_prerefactor_w{1,2}.gob hold: the
// parameters and log-likelihood trace the separate internal/model/ut
// and internal/model/tt trainers learned on fixtureWorld, recorded
// before they were merged into this package.
type fixture struct {
	Theta, Phi, Background, LogLikelihood []float64
}

func fixtureWorld() *cuboid.Cuboid {
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

// TestMatchesPreMergeFixture pins the merge and the port onto the
// engine: for each axis the one trainer, sharded s ways, reproduces bit
// for bit the parameters and log-likelihood trace the separate trainers
// learned at s workers (the grouping of the ϕ sums is what the two
// fixtures of an axis differ by) — at every worker count, which only
// decides how many goroutines run the shards. ScoreAll agrees with
// Score on every (document, item).
func TestMatchesPreMergeFixture(t *testing.T) {
	forBaselines(t, func(t *testing.T, b baseline) {
		data := fixtureWorld()
		for _, shards := range []int{1, 2} {
			f, err := os.Open(fmt.Sprintf("testdata/%s_prerefactor_w%d.gob", strings.ToLower(b.name), shards))
			if err != nil {
				t.Fatal(err)
			}
			var want fixture
			err = gob.NewDecoder(f).Decode(&want)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			var m *Model
			for _, workers := range []int{1, 2, 3, 8} {
				label := fmt.Sprintf("shards=%d workers=%d", shards, workers)
				cfg := DefaultConfig(b.axis)
				cfg.K, cfg.MaxIters, cfg.Tol, cfg.Seed, cfg.Workers = 5, 12, 1e-6, 11, workers
				var st model.TrainStats
				if m, st, err = trainSharded(data, b.axis, cfg, shards); err != nil {
					t.Fatal(err)
				}
				for name, pair := range map[string][2][]float64{
					"theta": {m.theta, want.Theta}, "phi": {m.phi, want.Phi},
					"background": {m.background, want.Background}, "log-likelihood": {st.LogLikelihood, want.LogLikelihood},
				} {
					if !bitsEqual(pair[0], pair[1]) {
						t.Errorf("%s: %s differs from the pre-merge fixture", label, name)
					}
				}
			}
			scores := make([]float64, m.NumItems())
			for u := 0; u < data.NumUsers(); u++ {
				for tt := 0; tt < data.NumIntervals(); tt++ {
					m.ScoreAll(u, tt, scores)
					for v := range scores {
						if math.Abs(scores[v]-m.Score(u, tt, v)) > 1e-12 {
							t.Fatalf("shards=%d: ScoreAll(%d,%d)[%d] = %v, Score = %v", shards, u, tt, v, scores[v], m.Score(u, tt, v))
						}
					}
				}
			}
		}
	})
}
