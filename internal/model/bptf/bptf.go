// Package bptf implements Bayesian Probabilistic Tensor Factorization
// (Xiong et al., SDM 2010), the strongest temporal baseline in the
// paper's Section 5.2. Ratings are modeled as a three-way tensor
//
//	R(u, v, t) ≈ ⟨U_u, V_v, T_t⟩ = Σ_d U_ud·V_vd·T_td
//
// with a Gaussian likelihood of precision α, Gaussian factor priors
// governed by Normal–Wishart hyperpriors for U and V, and a first-order
// smoothness chain T_t ~ N(T_{t−1}, Λ_T⁻¹) that ties consecutive time
// factors together. All conditionals are conjugate, so inference is a
// blocked Gibbs sampler; predictions average the multilinear form over
// retained post-burn-in samples.
//
// This package is the consumer the internal/mat and internal/stats
// substrates were built for: multivariate Gaussian sampling through
// Cholesky factors, Wishart draws via the Bartlett decomposition, and
// SPD solves for the per-entity posterior means.
package bptf

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"tcam/internal/cuboid"
	"tcam/internal/mat"
	"tcam/internal/model"
	"tcam/internal/stats"
)

// Config parameterizes the BPTF Gibbs sampler.
type Config struct {
	// Factors is the latent dimensionality D.
	Factors int
	// Burnin is the number of discarded Gibbs sweeps; Samples is the
	// number of retained sweeps that form the predictive average.
	Burnin  int
	Samples int
	// NegativeRatio is the number of sampled zero-valued cells per
	// observed cell. BPTF is a rating-prediction model; on implicit
	// feedback (all observed scores positive) it needs explicit
	// negatives to rank unobserved items below observed ones — the
	// standard adaptation when applying rating models to top-k tasks.
	// Set 0 to disable (explicit-rating data with a meaningful scale).
	NegativeRatio float64
	Seed          int64
	// Workers is the per-entity sampling parallelism; non-positive
	// means GOMAXPROCS.
	Workers int
}

// Alpha0 is the initial observation precision; it is resampled from
// its Gamma conditional every sweep.
const Alpha0 = 2

// DefaultConfig returns the harness's standard BPTF configuration.
func DefaultConfig() Config {
	return Config{Factors: 16, Burnin: 12, Samples: 8, NegativeRatio: 3, Seed: 1}
}

func (c Config) validate(data *cuboid.Cuboid) error {
	switch {
	case c.Factors <= 0:
		return fmt.Errorf("bptf: Factors must be positive, got %d", c.Factors)
	case c.Burnin < 0:
		return fmt.Errorf("bptf: negative Burnin %d", c.Burnin)
	case c.Samples <= 0:
		return fmt.Errorf("bptf: Samples must be positive, got %d", c.Samples)
	case c.NegativeRatio < 0:
		return fmt.Errorf("bptf: negative NegativeRatio %v", c.NegativeRatio)
	}
	if data.NNZ() == 0 {
		return errors.New("bptf: empty training cuboid")
	}
	return nil
}

// Model holds the retained factor samples of a fitted BPTF.
type Model struct {
	numUsers     int
	numItems     int
	numIntervals int
	factors      int

	// Retained samples, each flattened row-major (entity × factor).
	uSamples [][]float64
	vSamples [][]float64
	tSamples [][]float64
}

// Train runs the Gibbs sampler on the cuboid's observed cells, using the
// cell scores as the observed tensor values.
func Train(data *cuboid.Cuboid, cfg Config) (*Model, model.TrainStats, error) {
	var tstats model.TrainStats
	if err := cfg.validate(data); err != nil {
		return nil, tstats, err
	}
	g := newGibbsState(data, cfg)
	total := cfg.Burnin + cfg.Samples
	m := &Model{
		numUsers:     data.NumUsers(),
		numItems:     data.NumItems(),
		numIntervals: data.NumIntervals(),
		factors:      cfg.Factors,
	}
	for sweep := 0; sweep < total; sweep++ {
		g.sweep(sweep)
		tstats.LogLikelihood = append(tstats.LogLikelihood, g.logLikelihood())
		if sweep >= cfg.Burnin {
			m.uSamples = append(m.uSamples, append([]float64(nil), g.u...))
			m.vSamples = append(m.vSamples, append([]float64(nil), g.v...))
			m.tSamples = append(m.tSamples, append([]float64(nil), g.t...))
		}
	}
	tstats.Converged = true
	return m, tstats, nil
}

// Name returns "BPTF".
func (m *Model) Name() string { return "BPTF" }

// NumItems returns the item-catalog size.
func (m *Model) NumItems() int { return m.numItems }

// Score returns the posterior predictive mean of ⟨U_u, V_v, T_t⟩.
func (m *Model) Score(u, t, v int) float64 {
	d := m.factors
	var total float64
	for s := range m.uSamples {
		us := m.uSamples[s][u*d : (u+1)*d]
		vs := m.vSamples[s][v*d : (v+1)*d]
		ts := m.tSamples[s][t*d : (t+1)*d]
		var dot float64
		for f := 0; f < d; f++ {
			dot += us[f] * vs[f] * ts[f]
		}
		total += dot
	}
	return total / float64(len(m.uSamples))
}

// ScoreAll fills scores[v] with the predictive mean for every item. It
// reuses the per-sample element-wise product U_u∘T_t so the cost is
// O(S·V·D) — the three-vector inner product the paper blames for BPTF's
// slow online ranking.
func (m *Model) ScoreAll(u, t int, scores []float64) {
	if len(scores) != m.numItems {
		panic(fmt.Sprintf("bptf: ScoreAll buffer %d, want %d", len(scores), m.numItems))
	}
	d := m.factors
	for v := range scores {
		scores[v] = 0
	}
	w := make([]float64, d)
	for s := range m.uSamples {
		us := m.uSamples[s][u*d : (u+1)*d]
		ts := m.tSamples[s][t*d : (t+1)*d]
		for f := 0; f < d; f++ {
			w[f] = us[f] * ts[f]
		}
		vsAll := m.vSamples[s]
		for v := range scores {
			vs := vsAll[v*d : (v+1)*d]
			var dot float64
			for f := 0; f < d; f++ {
				dot += w[f] * vs[f]
			}
			scores[v] += dot
		}
	}
	inv := 1 / float64(len(m.uSamples))
	for v := range scores {
		scores[v] *= inv
	}
}

var _ model.Recommender = (*Model)(nil)

// hyper are the fixed Normal–Wishart hyperparameters (standard
// non-informative choices from the BPTF paper).
type hyper struct {
	mu0   mat.Vector  // prior factor mean (zero)
	beta0 float64     // prior pseudo-count
	w0    *mat.Matrix // Wishart scale (identity)
	nu0   float64     // Wishart degrees of freedom (= D)
}

// gibbsState carries everything one sweep needs. The cell slice is the
// observed data plus (optionally) sampled zero-valued negatives, with
// its own posting lists by user, item and interval.
type gibbsState struct {
	cfg   Config
	data  *cuboid.Cuboid
	cells []cuboid.Cell

	byUser [][]int
	byItem [][]int
	byTime [][]int

	d       int
	u, v, t []float64 // current factor matrices, row-major entity×factor

	muU, muV mat.Vector
	lamU     *mat.Matrix
	lamV     *mat.Matrix
	lamT     *mat.Matrix
	t0       mat.Vector // chain head T_0 (the state before interval 0)
	alpha    float64

	h   hyper
	rng *rand.Rand
}

func newGibbsState(data *cuboid.Cuboid, cfg Config) *gibbsState {
	d := cfg.Factors
	g := &gibbsState{
		cfg:   cfg,
		data:  data,
		cells: data.Cells(),
		d:     d,
		u:     make([]float64, data.NumUsers()*d),
		v:     make([]float64, data.NumItems()*d),
		t:     make([]float64, data.NumIntervals()*d),
		muU:   mat.NewVector(d),
		muV:   mat.NewVector(d),
		lamU:  mat.Identity(d),
		lamV:  mat.Identity(d),
		lamT:  mat.Identity(d),
		t0:    mat.NewVector(d),
		alpha: Alpha0,
		h:     hyper{mu0: mat.NewVector(d), beta0: 1, w0: mat.Identity(d), nu0: float64(d)},
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	g.cells = append([]cuboid.Cell(nil), g.cells...)
	g.sampleNegatives()
	g.byUser = make([][]int, data.NumUsers())
	g.byItem = make([][]int, data.NumItems())
	g.byTime = make([][]int, data.NumIntervals())
	for i, cell := range g.cells {
		g.byUser[cell.U] = append(g.byUser[cell.U], i)
		g.byItem[cell.V] = append(g.byItem[cell.V], i)
		g.byTime[cell.T] = append(g.byTime[cell.T], i)
	}
	// Initialize factors with small Gaussian noise; time factors start
	// at one so the initial multilinear form reduces to a plain MF.
	for i := range g.u {
		g.u[i] = 0.1 * g.rng.NormFloat64()
	}
	for i := range g.v {
		g.v[i] = 0.1 * g.rng.NormFloat64()
	}
	for i := range g.t {
		g.t[i] = 1 + 0.1*g.rng.NormFloat64()
	}
	return g
}

// sampleNegatives appends NegativeRatio·nnz uniformly sampled
// unobserved (u, t, v) triples with score zero, so the Gaussian
// likelihood learns that unobserved cells sit below observed ones.
func (g *gibbsState) sampleNegatives() {
	ratio := g.cfg.NegativeRatio
	if ratio <= 0 {
		return
	}
	n := int(ratio * float64(len(g.cells)))
	if n == 0 {
		return
	}
	T, V := int64(g.data.NumIntervals()), int64(g.data.NumItems())
	observed := make(map[int64]struct{}, len(g.cells))
	for _, cell := range g.cells {
		observed[(int64(cell.U)*T+int64(cell.T))*V+int64(cell.V)] = struct{}{}
	}
	for added := 0; added < n; {
		u := g.rng.Intn(g.data.NumUsers())
		t := g.rng.Intn(g.data.NumIntervals())
		v := g.rng.Intn(g.data.NumItems())
		key := (int64(u)*T+int64(t))*V + int64(v)
		if _, ok := observed[key]; ok {
			continue
		}
		observed[key] = struct{}{}
		g.cells = append(g.cells, cuboid.Cell{U: int32(u), T: int32(t), V: int32(v), Score: 0})
		added++
	}
}

func (g *gibbsState) factor(buf []float64, idx int) []float64 {
	return buf[idx*g.d : (idx+1)*g.d]
}

// predict returns ⟨U_u, V_v, T_t⟩ under the current state.
func (g *gibbsState) predict(cell cuboid.Cell) float64 {
	us := g.factor(g.u, int(cell.U))
	vs := g.factor(g.v, int(cell.V))
	ts := g.factor(g.t, int(cell.T))
	var dot float64
	for f := 0; f < g.d; f++ {
		dot += us[f] * vs[f] * ts[f]
	}
	return dot
}

// logLikelihood returns the full Gaussian data log-likelihood under the
// current state: n/2·ln(α/2π) − α·SSE/2. The normalization term matters
// for the trace — α is resampled toward n/SSE every sweep, so the
// penalty term alone would hover near −n/2 regardless of fit.
func (g *gibbsState) logLikelihood() float64 {
	var sse float64
	for _, cell := range g.cells {
		r := cell.Score - g.predict(cell)
		sse += r * r
	}
	n := float64(len(g.cells))
	return 0.5*n*math.Log(g.alpha/(2*math.Pi)) - 0.5*g.alpha*sse
}

// sweep runs one full blocked-Gibbs pass.
func (g *gibbsState) sweep(sweepIdx int) {
	g.sampleHyperU()
	g.sampleHyperV()
	g.sampleHyperT()
	g.sampleAlpha()
	g.sampleUsers(sweepIdx)
	g.sampleItems(sweepIdx)
	g.sampleTimes()
}

// sampleNormalWishart draws (μ, Λ) from the Normal–Wishart posterior
// given the rows of a factor matrix.
func (g *gibbsState) sampleNormalWishart(factors []float64, n int) (mat.Vector, *mat.Matrix) {
	d := g.d
	mean := mat.NewVector(d)
	for i := 0; i < n; i++ {
		mean.AddTo(g.factor(factors, i))
	}
	if n > 0 {
		mean.Scale(1 / float64(n))
	}
	scatter := mat.NewMatrix(d, d)
	diff := mat.NewVector(d)
	for i := 0; i < n; i++ {
		row := g.factor(factors, i)
		for f := 0; f < d; f++ {
			diff[f] = row[f] - mean[f]
		}
		scatter.OuterAdd(1, diff, diff)
	}
	h := g.h
	betaN := h.beta0 + float64(n)
	nuN := h.nu0 + float64(n)
	muN := mat.NewVector(d)
	for f := 0; f < d; f++ {
		muN[f] = (h.beta0*h.mu0[f] + float64(n)*mean[f]) / betaN
	}
	// W_N⁻¹ = W_0⁻¹ + S + β0·n/(β0+n)·(x̄−μ0)(x̄−μ0)ᵀ, with W_0 = I.
	winv := mat.Identity(d)
	winv.AddMatrix(1, scatter)
	for f := 0; f < d; f++ {
		diff[f] = mean[f] - h.mu0[f]
	}
	winv.OuterAdd(h.beta0*float64(n)/betaN, diff, diff)
	wN, err := mat.InvertSPD(winv)
	if err != nil {
		wN = mat.Identity(d)
	}
	wChol, err := mat.CholeskyJittered(wN)
	if err != nil {
		wChol = mat.Identity(d)
	}
	lam := stats.Wishart(g.rng, nuN, wChol)
	// μ ~ N(μ_N, (β_N Λ)⁻¹): Cholesky of β_N·Λ, sample via solve.
	prec := lam.Clone()
	prec.Scale(betaN)
	mu := sampleGaussianByPrecision(g.rng, muN, prec)
	return mu, lam
}

func (g *gibbsState) sampleHyperU() {
	g.muU, g.lamU = g.sampleNormalWishart(g.u, g.data.NumUsers())
}

func (g *gibbsState) sampleHyperV() {
	g.muV, g.lamV = g.sampleNormalWishart(g.v, g.data.NumItems())
}

// sampleHyperT draws Λ_T from its Wishart conditional given the chain
// increments, then refreshes the chain head T_0.
func (g *gibbsState) sampleHyperT() {
	d := g.d
	T := g.data.NumIntervals()
	winv := mat.Identity(d)
	diff := mat.NewVector(d)
	first := g.factor(g.t, 0)
	for f := 0; f < d; f++ {
		diff[f] = first[f] - g.t0[f]
	}
	winv.OuterAdd(1, diff, diff)
	for t := 1; t < T; t++ {
		cur, prev := g.factor(g.t, t), g.factor(g.t, t-1)
		for f := 0; f < d; f++ {
			diff[f] = cur[f] - prev[f]
		}
		winv.OuterAdd(1, diff, diff)
	}
	wN, err := mat.InvertSPD(winv)
	if err != nil {
		wN = mat.Identity(d)
	}
	wChol, err := mat.CholeskyJittered(wN)
	if err != nil {
		wChol = mat.Identity(d)
	}
	g.lamT = stats.Wishart(g.rng, g.h.nu0+float64(T), wChol)

	// T_0 | T_1 ~ N((μ0+T_1)/2, (2Λ_T)⁻¹) with μ0 = 1 (the neutral time
	// factor), keeping the chain anchored.
	mean := mat.NewVector(d)
	for f := 0; f < d; f++ {
		mean[f] = (1 + first[f]) / 2
	}
	prec := g.lamT.Clone()
	prec.Scale(2)
	g.t0 = sampleGaussianByPrecision(g.rng, mean, prec)
}

// sampleAlpha draws the observation precision from its Gamma
// conditional.
func (g *gibbsState) sampleAlpha() {
	var sse float64
	for _, cell := range g.cells {
		r := cell.Score - g.predict(cell)
		sse += r * r
	}
	n := float64(len(g.cells))
	const a0, b0 = 2.0, 2.0
	g.alpha = stats.Gamma(g.rng, a0+n/2, b0+sse/2)
}

// entitySeed derives a deterministic per-entity seed so entity updates
// can run on any number of workers without changing the draw.
func (g *gibbsState) entitySeed(kind, sweep, idx int) int64 {
	h := g.cfg.Seed
	h = h*1000003 + int64(kind)
	h = h*1000003 + int64(sweep)
	h = h*1000003 + int64(idx)
	return h
}

// sampleUsers resamples every user factor from its Gaussian conditional
//
//	Λ* = Λ_U + α·Σ_obs q qᵀ,  μ* = Λ*⁻¹(Λ_U μ_U + α·Σ_obs y·q)
//
// with q = V_v ∘ T_t, parallel over users.
func (g *gibbsState) sampleUsers(sweep int) {
	workers := model.Workers(g.cfg.Workers)
	d := g.d
	model.ParallelRanges(g.data.NumUsers(), workers, func(_, lo, hi int) {
		q := mat.NewVector(d)
		for u := lo; u < hi; u++ {
			rng := rand.New(rand.NewSource(g.entitySeed(1, sweep, u)))
			prec := g.lamU.Clone()
			rhs := g.lamU.MulVec(g.muU)
			for _, ci := range g.byUser[u] {
				cell := g.cells[ci]
				vs := g.factor(g.v, int(cell.V))
				ts := g.factor(g.t, int(cell.T))
				for f := 0; f < d; f++ {
					q[f] = vs[f] * ts[f]
				}
				prec.OuterAdd(g.alpha, q, q)
				rhs.AddScaled(g.alpha*cell.Score, q)
			}
			copy(g.factor(g.u, u), sampleGaussianByPrecisionRHS(rng, rhs, prec))
		}
	})
}

// sampleItems mirrors sampleUsers with q = U_u ∘ T_t, parallel over
// items.
func (g *gibbsState) sampleItems(sweep int) {
	workers := model.Workers(g.cfg.Workers)
	d := g.d
	model.ParallelRanges(g.data.NumItems(), workers, func(_, lo, hi int) {
		q := mat.NewVector(d)
		for v := lo; v < hi; v++ {
			rng := rand.New(rand.NewSource(g.entitySeed(2, sweep, v)))
			prec := g.lamV.Clone()
			rhs := g.lamV.MulVec(g.muV)
			for _, ci := range g.byItem[v] {
				cell := g.cells[ci]
				us := g.factor(g.u, int(cell.U))
				ts := g.factor(g.t, int(cell.T))
				for f := 0; f < d; f++ {
					q[f] = us[f] * ts[f]
				}
				prec.OuterAdd(g.alpha, q, q)
				rhs.AddScaled(g.alpha*cell.Score, q)
			}
			copy(g.factor(g.v, v), sampleGaussianByPrecisionRHS(rng, rhs, prec))
		}
	})
}

// sampleTimes resamples the time chain sequentially (each T_t depends on
// its neighbors, so this block is not parallelized).
func (g *gibbsState) sampleTimes() {
	d := g.d
	T := g.data.NumIntervals()
	q := mat.NewVector(d)
	for t := 0; t < T; t++ {
		// Chain prior: neighbors T_{t−1} (or T_0 head) and T_{t+1}.
		prec := g.lamT.Clone()
		var prev mat.Vector
		if t == 0 {
			prev = g.t0
		} else {
			prev = mat.Vector(g.factor(g.t, t-1))
		}
		rhs := g.lamT.MulVec(prev)
		if t+1 < T {
			prec.AddMatrix(1, g.lamT)
			rhs.AddTo(g.lamT.MulVec(mat.Vector(g.factor(g.t, t+1))))
		}
		for _, ci := range g.byTime[t] {
			cell := g.cells[ci]
			us := g.factor(g.u, int(cell.U))
			vs := g.factor(g.v, int(cell.V))
			for f := 0; f < d; f++ {
				q[f] = us[f] * vs[f]
			}
			prec.OuterAdd(g.alpha, q, q)
			rhs.AddScaled(g.alpha*cell.Score, q)
		}
		copy(g.factor(g.t, t), sampleGaussianByPrecisionRHS(g.rng, rhs, prec))
	}
}

// sampleGaussianByPrecision draws x ~ N(mean, prec⁻¹).
func sampleGaussianByPrecision(rng *rand.Rand, mean mat.Vector, prec *mat.Matrix) mat.Vector {
	l, err := mat.CholeskyJittered(prec)
	if err != nil {
		return mean.Clone()
	}
	z := mat.NewVector(len(mean))
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	// x = mean + L⁻ᵀ z has covariance (L Lᵀ)⁻¹ = prec⁻¹.
	dx := mat.SolveUpperT(l, z)
	out := mean.Clone()
	out.AddTo(dx)
	return out
}

// sampleGaussianByPrecisionRHS draws x ~ N(prec⁻¹·rhs, prec⁻¹), the
// form every per-entity conditional takes.
func sampleGaussianByPrecisionRHS(rng *rand.Rand, rhs mat.Vector, prec *mat.Matrix) mat.Vector {
	l, err := mat.CholeskyJittered(prec)
	if err != nil {
		return rhs.Clone()
	}
	mean := mat.SolveUpperT(l, mat.SolveLower(l, rhs))
	z := mat.NewVector(len(rhs))
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	dx := mat.SolveUpperT(l, z)
	mean.AddTo(dx)
	return mean
}
