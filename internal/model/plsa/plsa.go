// Package plsa implements the two topic baselines of Section 5.2 as
// one model: a background-smoothed PLSA whose "document" is one row of
// a chosen cuboid axis,
//
//	P(v|d) = λB·P(v|θB) + (1−λB)·Σ_z P(z|θd)P(v|φz)
//
// With users as documents it is UT, the author-topic–style model that
// generates items from user interests alone and ignores time — it wins
// on interest-driven catalogs (MovieLens) and loses on time-sensitive
// ones (Digg). With intervals as documents it is TT, the mirror image
// that ignores user identity. Each is one half of Equation 1 taken
// alone — the asymmetry TCAM unifies.
package plsa

import (
	"fmt"
	"math"
	"math/rand"

	"tcam/internal/cuboid"
	"tcam/internal/model"
)

// Axis names the cuboid dimension whose rows are the documents.
type Axis int

const (
	// Users makes each user's ratings one document, aggregated across
	// intervals: the UT baseline.
	Users Axis = iota
	// Intervals makes each interval's ratings one document, aggregated
	// across users: the TT baseline.
	Intervals
)

// Config parameterizes training.
type Config struct {
	// K is the number of topics.
	K int
	// LambdaB is the fixed background mixing weight λB.
	LambdaB float64
	// MaxIters bounds EM; Tol is the early-stopping tolerance on
	// relative log-likelihood improvement.
	MaxIters int
	Tol      float64
	Seed     int64
	// Workers is the E-step parallelism; non-positive means GOMAXPROCS.
	Workers   int
	Smoothing float64
}

// DefaultConfig returns the harness's standard configuration for the
// axis: the paper's K1 = 60 user-oriented or K2 = 40 time-oriented
// topics.
func DefaultConfig(axis Axis) Config {
	k := [...]int{Users: 60, Intervals: 40}[axis]
	return Config{K: k, LambdaB: 0.1, MaxIters: 50, Tol: 1e-5, Seed: 1, Smoothing: 1e-9}
}

func (c Config) validate(data *cuboid.Cuboid) error {
	switch {
	case c.K <= 0:
		return fmt.Errorf("plsa: K must be positive, got %d", c.K)
	case c.LambdaB < 0 || c.LambdaB >= 1:
		return fmt.Errorf("plsa: LambdaB %v outside [0,1)", c.LambdaB)
	case c.MaxIters <= 0:
		return fmt.Errorf("plsa: MaxIters must be positive")
	case c.Smoothing < 0:
		return fmt.Errorf("plsa: negative smoothing %v", c.Smoothing)
	case data.NNZ() == 0:
		return fmt.Errorf("plsa: empty training cuboid")
	}
	return nil
}

// Model is a trained topic baseline.
type Model struct {
	axis    Axis
	k       int
	lambdaB float64

	theta      []float64 // D×K: P(z|θd), one row per document
	phi        []float64 // K×V: P(v|φz)
	background []float64 // V: θB
}

// Train fits the baseline the axis selects. The cuboid's other
// dimension is ignored (ratings aggregate across it); the E-step
// parallelizes over documents.
func Train(data *cuboid.Cuboid, axis Axis, cfg Config) (*Model, model.TrainStats, error) {
	var stats model.TrainStats
	if err := cfg.validate(data); err != nil {
		return nil, stats, err
	}
	// The documents: item and score columns grouped by the axis, and
	// the row range of each.
	docs, span := data.NumUsers(), data.UserSpan
	_, vs, scores := data.CSR()
	if axis == Intervals {
		docs, span = data.NumIntervals(), data.IntervalSpan
		_, vs, scores = data.IntervalCSR()
	}
	k, v := cfg.K, data.NumItems()
	m := &Model{
		axis:       axis,
		k:          k,
		lambdaB:    cfg.LambdaB,
		theta:      make([]float64, docs*k),
		phi:        make([]float64, k*v),
		background: make([]float64, v),
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	jitterRows(rng, m.theta, k)
	jitterRows(rng, m.phi, v)
	for _, cell := range data.Cells() {
		m.background[cell.V] += cell.Score
	}
	model.NormalizeRows(m.background, v, 1e-9)

	workers := model.Workers(cfg.Workers)
	thetaAcc := make([]float64, len(m.theta))
	phiW := make([][]float64, workers)
	for w := range phiW {
		phiW[w] = make([]float64, len(m.phi))
	}
	llW := make([]float64, workers)
	prevLL := math.Inf(-1)
	for iter := 0; iter < cfg.MaxIters; iter++ {
		clear(thetaAcc)
		for _, s := range phiW {
			clear(s)
		}
		model.ParallelRanges(docs, workers, func(worker, lo, hi int) {
			phiAcc := phiW[worker]
			pz := make([]float64, k)
			var ll float64
			for d := lo; d < hi; d++ {
				thetaRow := m.theta[d*k : (d+1)*k]
				clo, chi := span(d)
				for ci := clo; ci < chi; ci++ {
					vv, w := int(vs[ci]), scores[ci]
					var pd float64
					for z := 0; z < k; z++ {
						p := thetaRow[z] * m.phi[z*v+vv]
						pz[z] = p
						pd += p
					}
					denom := cfg.LambdaB*m.background[vv] + (1-cfg.LambdaB)*pd
					if denom <= 0 {
						denom = 1e-300
					}
					ll += w * math.Log(denom)
					// Posterior mass of the topic path, split across z.
					if pd > 0 {
						pTopic := (1 - cfg.LambdaB) * pd / denom
						scale := w * pTopic / pd
						for z := 0; z < k; z++ {
							c := scale * pz[z]
							thetaAcc[d*k+z] += c
							phiAcc[z*v+vv] += c
						}
					}
				}
			}
			llW[worker] = ll
		})
		copy(m.theta, thetaAcc)
		model.NormalizeRows(m.theta, k, cfg.Smoothing)
		copy(m.phi, model.MergeSlabs(phiW))
		model.NormalizeRows(m.phi, v, cfg.Smoothing)

		var ll float64
		for _, x := range llW {
			ll += x
		}
		stats.LogLikelihood = append(stats.LogLikelihood, ll)
		if iter > 0 {
			if rel := math.Abs(ll-prevLL) / (math.Abs(prevLL) + 1e-12); rel < cfg.Tol {
				stats.Converged = true
				break
			}
		}
		prevLL = ll
	}
	return m, stats, nil
}

func jitterRows(rng *rand.Rand, data []float64, cols int) {
	for i := range data {
		data[i] = 1 + 0.5*rng.Float64()
	}
	model.NormalizeRows(data, cols, 0)
}

// Name returns the paper's label for the baseline: "UT" or "TT".
func (m *Model) Name() string { return [...]string{Users: "UT", Intervals: "TT"}[m.axis] }

// NumItems returns the item-catalog size.
func (m *Model) NumItems() int { return len(m.background) }

// K returns the number of topics.
func (m *Model) K() int { return m.k }

// Topic returns P(·|φz). Callers must not modify the slice.
func (m *Model) Topic(z int) []float64 { return m.phi[z*m.NumItems() : (z+1)*m.NumItems()] }

// mixture returns P(·|θd) for the document of query (u, t): the user's
// interests (UT) or the interval's temporal context (TT). The other
// coordinate is ignored by design.
func (m *Model) mixture(u, t int) []float64 {
	d := u
	if m.axis == Intervals {
		d = t
	}
	return m.theta[d*m.k : (d+1)*m.k]
}

// Score returns P(v|d) for the query's document.
func (m *Model) Score(u, t, v int) float64 {
	var pd float64
	thetaRow := m.mixture(u, t)
	for z := 0; z < m.k; z++ {
		pd += thetaRow[z] * m.phi[z*m.NumItems()+v]
	}
	return m.lambdaB*m.background[v] + (1-m.lambdaB)*pd
}

// ScoreAll fills scores[v] = P(v|d) for every item.
func (m *Model) ScoreAll(u, t int, scores []float64) {
	if len(scores) != m.NumItems() {
		panic(fmt.Sprintf("plsa: ScoreAll buffer %d, want %d", len(scores), m.NumItems()))
	}
	for v := range scores {
		scores[v] = m.lambdaB * m.background[v]
	}
	thetaRow := m.mixture(u, t)
	for z := 0; z < m.k; z++ {
		w := (1 - m.lambdaB) * thetaRow[z]
		if w <= 0 {
			continue
		}
		row := m.Topic(z)
		for v := range scores {
			scores[v] += w * row[v]
		}
	}
}

var _ model.BulkScorer = (*Model)(nil)
