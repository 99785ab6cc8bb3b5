// Package bprmf implements the BPRMF baseline of Section 5.2: matrix
// factorization for item ranking trained with Bayesian Personalized
// Ranking (Rendle et al., UAI 2009), the optimizer MyMediaLite's BPRMF
// uses. The model learns user factors p_u, item factors q_v and item
// biases b_v by stochastic gradient ascent on
//
//	Σ_(u,i,j) ln σ(x̂_ui − x̂_uj) − reg·‖Θ‖²
//
// over bootstrap-sampled triples (user, positive item, negative item).
// Like the paper's configuration, it sees no temporal information: its
// ranking for (u, t) is the same for every t, which is precisely why
// TCAM dominates it on temporal top-k tasks.
package bprmf

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"tcam/internal/cuboid"
	"tcam/internal/model"
)

// Config parameterizes BPRMF training.
type Config struct {
	// Factors is the latent dimensionality D.
	Factors int
	// Epochs is the number of SGD sweeps; each sweep draws one triple
	// per observed (user, item) positive.
	Epochs int
	// LearnRate is the SGD step size; Reg the L2 regularization applied
	// to factors and biases.
	LearnRate float64
	Reg       float64
	// InitStd is the standard deviation of the Gaussian factor
	// initialization.
	InitStd float64
	Seed    int64
}

// DefaultConfig mirrors MyMediaLite's BPRMF defaults at a small scale.
func DefaultConfig() Config {
	return Config{Factors: 32, Epochs: 30, LearnRate: 0.05, Reg: 0.01, InitStd: 0.1, Seed: 1}
}

func (c Config) validate(data *cuboid.Cuboid) error {
	switch {
	case c.Factors <= 0:
		return fmt.Errorf("bprmf: Factors must be positive, got %d", c.Factors)
	case c.Epochs <= 0:
		return fmt.Errorf("bprmf: Epochs must be positive, got %d", c.Epochs)
	case c.LearnRate <= 0:
		return fmt.Errorf("bprmf: LearnRate must be positive, got %v", c.LearnRate)
	case c.Reg < 0:
		return fmt.Errorf("bprmf: negative regularization %v", c.Reg)
	case c.InitStd <= 0:
		return fmt.Errorf("bprmf: InitStd must be positive, got %v", c.InitStd)
	}
	if data.NNZ() == 0 {
		return errors.New("bprmf: empty training cuboid")
	}
	return nil
}

// Model is a trained BPRMF ranker.
type Model struct {
	numUsers int
	numItems int
	factors  int

	p    []float64 // N×D user factors
	q    []float64 // V×D item factors
	bias []float64 // V item biases
}

// Train fits BPRMF on the positives of the cuboid (scores are treated
// as implicit feedback: any observed cell is a positive, aggregated
// over intervals).
func Train(data *cuboid.Cuboid, cfg Config) (*Model, model.TrainStats, error) {
	var stats model.TrainStats
	if err := cfg.validate(data); err != nil {
		return nil, stats, err
	}
	n, V, d := data.NumUsers(), data.NumItems(), cfg.Factors
	m := &Model{
		numUsers: n,
		numItems: V,
		factors:  d,
		p:        make([]float64, n*d),
		q:        make([]float64, V*d),
		bias:     make([]float64, V),
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := range m.p {
		m.p[i] = rng.NormFloat64() * cfg.InitStd
	}
	for i := range m.q {
		m.q[i] = rng.NormFloat64() * cfg.InitStd
	}

	// Positive pairs (u, v) deduplicated across intervals, plus a
	// per-user positive set for negative sampling.
	type pair struct{ u, v int32 }
	var positives []pair
	posSet := make([]map[int32]bool, n)
	_, itemCol, _ := data.CSR()
	for u := 0; u < n; u++ {
		posSet[u] = make(map[int32]bool)
		lo, hi := data.UserSpan(u)
		for _, v := range itemCol[lo:hi] {
			if !posSet[u][v] {
				posSet[u][v] = true
				positives = append(positives, pair{u: int32(u), v: v})
			}
		}
	}
	if len(positives) == 0 {
		return nil, stats, errors.New("bprmf: no positive pairs")
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var obj float64
		for step := 0; step < len(positives); step++ {
			pr := positives[rng.Intn(len(positives))]
			u, i := int(pr.u), int(pr.v)
			// Uniform negative not in the user's positive set; bail out
			// for pathological users who rated everything.
			var j int
			found := false
			for try := 0; try < 32; try++ {
				j = rng.Intn(V)
				if !posSet[u][int32(j)] {
					found = true
					break
				}
			}
			if !found {
				continue
			}
			obj += m.updateTriple(u, i, j, cfg)
		}
		stats.LogLikelihood = append(stats.LogLikelihood, obj)
	}
	return m, stats, nil
}

// updateTriple performs one BPR-Opt SGD step on (u, i, j) and returns
// the triple's contribution ln σ(x̂_uij) to the objective (pre-update).
func (m *Model) updateTriple(u, i, j int, cfg Config) float64 {
	d := m.factors
	pu := m.p[u*d : (u+1)*d]
	qi := m.q[i*d : (i+1)*d]
	qj := m.q[j*d : (j+1)*d]
	xuij := m.bias[i] - m.bias[j]
	for f := 0; f < d; f++ {
		xuij += pu[f] * (qi[f] - qj[f])
	}
	sig := 1 / (1 + math.Exp(xuij)) // σ(−x̂) = 1 − σ(x̂): the gradient scale
	lr, reg := cfg.LearnRate, cfg.Reg
	m.bias[i] += lr * (sig - reg*m.bias[i])
	m.bias[j] += lr * (-sig - reg*m.bias[j])
	for f := 0; f < d; f++ {
		puf, qif, qjf := pu[f], qi[f], qj[f]
		pu[f] += lr * (sig*(qif-qjf) - reg*puf)
		qi[f] += lr * (sig*puf - reg*qif)
		qj[f] += lr * (-sig*puf - reg*qjf)
	}
	return -math.Log1p(math.Exp(-xuij))
}

// Name returns "BPRMF".
func (m *Model) Name() string { return "BPRMF" }

// NumItems returns the item-catalog size.
func (m *Model) NumItems() int { return m.numItems }

// Score returns x̂_uv = p_u·q_v + b_v; the interval argument is ignored
// by design.
func (m *Model) Score(u, _, v int) float64 {
	d := m.factors
	pu := m.p[u*d : (u+1)*d]
	qv := m.q[v*d : (v+1)*d]
	s := m.bias[v]
	for f := 0; f < d; f++ {
		s += pu[f] * qv[f]
	}
	return s
}

// ScoreAll fills scores[v] = x̂_uv for every item.
func (m *Model) ScoreAll(u, _ int, scores []float64) {
	if len(scores) != m.numItems {
		panic(fmt.Sprintf("bprmf: ScoreAll buffer %d, want %d", len(scores), m.numItems))
	}
	d := m.factors
	pu := m.p[u*d : (u+1)*d]
	for v := range scores {
		qv := m.q[v*d : (v+1)*d]
		s := m.bias[v]
		for f := 0; f < d; f++ {
			s += pu[f] * qv[f]
		}
		scores[v] = s
	}
}

var _ model.BulkScorer = (*Model)(nil)
