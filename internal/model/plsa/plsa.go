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
//
// Training is a client of the internal/train engine, like TCAM's: the
// documents are the sharding dimension, the E-step runs on the engine's
// kernels, and the engine's convergence rule, per-iteration hook and
// fixed shard count apply — the learned parameters are a function of
// (data, Config.Seed), never of Config.Workers or the host.
package plsa

import (
	"fmt"
	"math"
	"math/rand"

	"tcam/internal/cuboid"
	"tcam/internal/model"
	"tcam/internal/train"
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
	// Config is the EM engine's policy: MaxIters, Tol, Shards, Workers,
	// Checkpoint and Hook. Shards — never Workers — fixes the learned
	// parameters' floating-point summation grouping.
	train.Config
	// K is the number of topics.
	K    int
	Seed int64
}

// LambdaB is the fixed background mixing weight λB, and Smoothing the
// additive epsilon of every multinomial normalization, the
// background's included.
const (
	LambdaB   = 0.1
	Smoothing = 1e-9
)

// DefaultConfig returns the harness's standard configuration for the
// axis: the paper's K1 = 60 user-oriented or K2 = 40 time-oriented
// topics.
func DefaultConfig(axis Axis) Config {
	k := [...]int{Users: 60, Intervals: 40}[axis]
	return Config{Config: train.Config{MaxIters: 50, Tol: 1e-5}, K: k, Seed: 1}
}

func (c Config) validate(data *cuboid.Cuboid) error {
	switch {
	case c.K <= 0:
		return fmt.Errorf("plsa: K must be positive, got %d", c.K)
	case data.NNZ() == 0:
		return fmt.Errorf("plsa: empty training cuboid")
	}
	return nil
}

// Model is a trained topic baseline.
type Model struct {
	axis Axis
	k    int

	theta      []float64 // D×K: P(z|θd), one row per document
	phi        []float64 // K×V: P(v|φz)
	background []float64 // V: θB
}

// Train fits the baseline the axis selects. The cuboid's other
// dimension is ignored (ratings aggregate across it).
func Train(data *cuboid.Cuboid, axis Axis, cfg Config) (*Model, model.TrainStats, error) {
	tr, err := prepare(data, axis, cfg)
	if err != nil {
		return nil, model.TrainStats{}, err
	}
	stats, err := train.Run(tr, cfg.Config)
	if err != nil {
		return nil, stats, err
	}
	return tr.m, stats, nil
}

// prepare validates the config and returns a trainer around a freshly
// initialized model: the setup behind Train and the single-iteration
// benchmark.
func prepare(data *cuboid.Cuboid, axis Axis, cfg Config) (*trainer, error) {
	if err := cfg.validate(data); err != nil {
		return nil, err
	}
	// The documents: the cells in the axis's order, and the span of
	// each.
	tr := &trainer{docs: data.NumUsers(), span: data.UserSpan, cells: data.Cells()}
	if axis == Intervals {
		tr.docs, tr.span, tr.cells = data.NumIntervals(), data.IntervalSpan, data.IntervalCells()
	}
	k, v := cfg.K, data.NumItems()
	m := &Model{
		axis:       axis,
		k:          k,
		theta:      make([]float64, tr.docs*k),
		phi:        make([]float64, k*v),
		background: make([]float64, v),
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	jitterRows(rng, m.theta, k)
	jitterRows(rng, m.phi, v)
	for _, cell := range data.Cells() {
		m.background[cell.V] += cell.Score
	}
	model.NormalizeRows(m.background, v, Smoothing)

	tr.m, tr.theta, tr.phiT = m, make([]float64, len(m.theta)), make([]float64, len(m.phi))
	train.Transpose(tr.phiT, m.phi, k, v)
	return tr, nil
}

// trainer adapts the E/M-step to train.Trainable, as tcam's does: the θ
// statistics are document-sharded — every shard writes a disjoint row
// range of one shared slab — so only the ϕ slab lives in the
// accumulators and is merged. phiT is the E-step's item-major copy of
// ϕ, rebuilt by bit-exact transposition after every M-step; the
// accumulator slabs share its layout, so each cell reads and writes
// contiguous K-length rows.
type trainer struct {
	m     *Model
	docs  int
	span  func(d int) (lo, hi int)
	cells []cuboid.Cell

	theta []float64 // D×K, an E-step over [lo, hi) owns rows [lo, hi)
	phiT  []float64 // V×K: transpose of Model.phi
}

// accum is one shard's global sufficient statistics — an item-major ϕ
// slab — and posterior scratch.
type accum struct {
	phiT []float64 // V×K
	pz   []float64 // K
	ll   float64
}

func (tr *trainer) NumUsers() int { return tr.docs }

func (tr *trainer) NewAccum() train.Accum {
	return &accum{phiT: make([]float64, len(tr.phiT)), pz: train.Scratch(tr.m.k)}
}

//tcam:hotpath
func (a *accum) Reset() {
	train.Zero(a.phiT)
	a.ll = 0
}

//tcam:hotpath
func (a *accum) Merge(src train.Accum) {
	s := src.(*accum)
	train.MergeInto(a.phiT, s.phiT)
	a.ll += s.ll
}

// EStep scans documents [first, last): it clears their rows of the θ
// statistics, then adds the posterior over topics of every rated cell,
// split between the background and the topic path.
//
//tcam:hotpath
func (tr *trainer) EStep(acc train.Accum, first, last int) {
	a := acc.(*accum)
	m, k := tr.m, tr.m.k
	cells, phiT, pz := tr.cells, tr.phiT, a.pz
	train.Zero(tr.theta[first*k : last*k])
	var ll float64
	for d := first; d < last; d++ {
		thetaRow := m.theta[d*k : (d+1)*k]
		thetaAcc := tr.theta[d*k : (d+1)*k]
		lo, hi := tr.span(d)
		for _, cell := range cells[lo:hi] {
			v, w := int(cell.V), cell.Score
			pd := train.DotInto(pz, thetaRow, phiT[v*k:(v+1)*k])
			denom := LambdaB*m.background[v] + (1-LambdaB)*pd
			if denom <= 0 {
				denom = 1e-300
			}
			ll += w * math.Log(denom)
			// Posterior mass of the topic path, split across z.
			if pd > 0 {
				pTopic := (1 - LambdaB) * pd / denom
				train.AddScaledPair(thetaAcc, a.phiT[v*k:(v+1)*k], w*pTopic/pd, pz)
			}
		}
	}
	a.ll = ll
}

// MStep renormalizes the merged statistics into θ and ϕ and returns the
// log-likelihood under the parameters the iteration started from.
func (tr *trainer) MStep(merged train.Accum) float64 {
	a := merged.(*accum)
	m, v := tr.m, tr.m.NumItems()
	copy(m.theta, tr.theta)
	model.NormalizeRows(m.theta, m.k, Smoothing)
	train.Transpose(m.phi, a.phiT, v, m.k)
	model.NormalizeRows(m.phi, v, Smoothing)
	train.Transpose(tr.phiT, m.phi, m.k, v)
	return a.ll
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
	return LambdaB*m.background[v] + (1-LambdaB)*pd
}

// ScoreAll fills scores[v] = P(v|d) for every item.
func (m *Model) ScoreAll(u, t int, scores []float64) {
	if len(scores) != m.NumItems() {
		panic(fmt.Sprintf("plsa: ScoreAll buffer %d, want %d", len(scores), m.NumItems()))
	}
	for v := range scores {
		scores[v] = LambdaB * m.background[v]
	}
	thetaRow := m.mixture(u, t)
	for z := 0; z < m.k; z++ {
		w := (1 - LambdaB) * thetaRow[z]
		if w <= 0 {
			continue
		}
		row := m.Topic(z)
		for v := range scores {
			scores[v] += w * row[v]
		}
	}
}

var _ model.Recommender = (*Model)(nil)
