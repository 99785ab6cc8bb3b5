package tcam

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tcam/internal/cuboid"
)

// randomWorld builds a random small cuboid from a seed.
func randomWorld(seed int64) *cuboid.Cuboid {
	r := rand.New(rand.NewSource(seed))
	nu, nt, nv := 4+r.Intn(10), 2+r.Intn(5), 5+r.Intn(15)
	b := cuboid.NewBuilder(nu, nt, nv)
	n := 20 + r.Intn(120)
	for i := 0; i < n; i++ {
		b.MustAdd(r.Intn(nu), r.Intn(nt), r.Intn(nv), 0.5+2*r.Float64())
	}
	return b.Build()
}

func onSimplex(p []float64) bool {
	var sum float64
	for _, x := range p {
		if x < 0 || math.IsNaN(x) {
			return false
		}
		sum += x
	}
	return math.Abs(sum-1) < 1e-6
}

// Property: on arbitrary small worlds, EM keeps every distribution on
// the simplex and the log-likelihood non-decreasing.
func TestEMInvariantsProperty(t *testing.T) {
	forVariants(t, func(t *testing.T, v variant) {
		f := func(seed int64) bool {
			cfg := v.config(4, 3)
			cfg.MaxIters, cfg.Seed = 8, seed
			m, st, err := Train(randomWorld(seed), cfg)
			if err != nil {
				return false
			}
			for i := 1; i < st.Iterations(); i++ {
				prev, cur := st.LogLikelihood[i-1], st.LogLikelihood[i]
				if cur < prev-math.Abs(prev)*1e-8-1e-8 {
					return false
				}
			}
			for u := 0; u < m.NumUsers(); u++ {
				if l := m.Lambda(u); !onSimplex(m.UserInterest(u)) || l < 0 || l > 1 {
					return false
				}
			}
			for z := 0; z < m.K1(); z++ {
				if !onSimplex(m.UserTopic(z)) {
					return false
				}
			}
			for x := 0; x < m.K2(); x++ {
				if !onSimplex(m.TimeTopic(x)) {
					return false
				}
			}
			for tt := 0; tt < m.NumIntervals(); tt++ {
				if !onSimplex(m.TemporalContext(tt)) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Error(err)
		}
	})
}

// Property: TA decomposition (QueryWeightsInto · ItemTopics) equals Score
// for random models and probes.
func TestDecompositionProperty(t *testing.T) {
	forVariants(t, func(t *testing.T, v variant) {
		f := func(seed int64) bool {
			cfg := v.config(3, 3)
			cfg.MaxIters = 5
			m, _, err := Train(randomWorld(seed), cfg)
			if err != nil {
				return false
			}
			r := rand.New(rand.NewSource(seed + 99))
			for probe := 0; probe < 10; probe++ {
				u, tt, item := r.Intn(m.NumUsers()), r.Intn(m.NumIntervals()), r.Intn(m.NumItems())
				w := make([]float64, m.NumTopics())
				m.QueryWeightsInto(u, tt, w)
				var s float64
				for z, wz := range w {
					if wz != 0 {
						s += wz * m.ItemTopics()[item*m.NumTopics()+z]
					}
				}
				if math.Abs(s-m.Score(u, tt, item)) > 1e-10 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Error(err)
		}
	})
}

// Property: scores are valid probabilities (non-negative, and summing
// over items to one for any (u, t)).
func TestScoreIsDistributionProperty(t *testing.T) {
	forVariants(t, func(t *testing.T, v variant) {
		f := func(seed int64) bool {
			cfg := v.config(3, 3)
			cfg.MaxIters = 5
			m, _, err := Train(randomWorld(seed), cfg)
			if err != nil {
				return false
			}
			scores := make([]float64, m.NumItems())
			for u := 0; u < m.NumUsers(); u += 3 {
				for tt := 0; tt < m.NumIntervals(); tt++ {
					m.ScoreAll(u, tt, scores)
					if !onSimplex(scores) {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Error(err)
		}
	})
}
