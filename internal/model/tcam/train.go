package tcam

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"tcam/internal/cuboid"
	"tcam/internal/model"
	"tcam/internal/train"
)

// Train fits the model on the rating cuboid (or the weighted cuboid of
// Equation 20) and returns it with its training statistics.
func Train(data *cuboid.Cuboid, cfg Config) (*Model, model.TrainStats, error) {
	tr, err := prepare(data, cfg)
	if err != nil {
		return nil, model.TrainStats{}, err
	}
	stats, err := train.Run(tr, train.Config{
		MaxIters:   cfg.MaxIters,
		Tol:        cfg.Tol,
		Shards:     cfg.Shards,
		Workers:    cfg.Workers,
		Checkpoint: cfg.Checkpoint,
		Hook:       cfg.Hook,
	})
	if err != nil {
		return nil, stats, err
	}
	return tr.m, stats, nil
}

// prepare validates the config and returns a trainer around a freshly
// initialized model. It is the shared setup behind Train and the
// single-iteration benchmarks.
func prepare(data *cuboid.Cuboid, cfg Config) (*trainer, error) {
	if err := cfg.validate(data); err != nil {
		return nil, err
	}
	n, T, V := data.NumUsers(), data.NumIntervals(), data.NumItems()
	m := &Model{
		label:        cfg.Label,
		numUsers:     n,
		numIntervals: T,
		numItems:     V,
		stride:       V,
		k1:           cfg.K1,
		k2:           cfg.K2,
		backgroundW:  cfg.Background,
	}
	if m.label == "" {
		m.label = "TTCAM"
		if m.k2 == 0 {
			m.label = "ITCAM"
		}
	}
	m.theta = make([]float64, n*m.k1)
	m.phi = make([]float64, m.k1*V)
	m.ctx = make([]float64, T*m.ctxWidth(V))
	m.phiX = make([]float64, m.k2*V)
	m.lambda = make([]float64, n)
	m.initialize(data, cfg.Seed)
	return newTrainer(m, data, cfg.Smoothing, newItemMajor(m)), nil
}

// initialize seeds θ, φ and the topic-mixture context (θ', φ') with
// jittered-uniform rows, an item context with the empirical
// per-interval item distribution, λ at one half and the background with
// the empirical item distribution. This is the only place training
// consumes randomness; a checkpoint resume simply overwrites the
// initialized parameters, which is why resumed runs match uninterrupted
// ones bit-for-bit.
func (m *Model) initialize(data *cuboid.Cuboid, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fillJitteredRows(rng, m.theta, m.k1)
	fillJitteredRows(rng, m.phi, m.numItems)
	if m.k2 == 0 {
		for _, cell := range data.Cells() {
			m.ctx[int(cell.T)*m.numItems+int(cell.V)] += cell.Score
		}
		model.NormalizeRows(m.ctx, m.numItems, 1e-6)
	} else {
		fillJitteredRows(rng, m.ctx, m.k2)
		fillJitteredRows(rng, m.phiX, m.numItems)
	}
	for u := range m.lambda {
		m.lambda[u] = 0.5
	}
	if m.backgroundW > 0 {
		m.background = make([]float64, m.numItems)
		for _, cell := range data.Cells() {
			m.background[cell.V] += cell.Score
		}
		model.NormalizeRows(m.background, m.numItems, 1e-9)
	}
}

func fillJitteredRows(rng *rand.Rand, data []float64, cols int) {
	for i := range data {
		data[i] = 1 + 0.5*rng.Float64()
	}
	model.NormalizeRows(data, cols, 0)
}

// trainer adapts the E/M-step math to the train.Trainable contract. The
// θ and λ sufficient statistics are user-sharded — every shard writes a
// disjoint row range of one shared slab — so only the global φ, θ' and
// φ' slabs are duplicated per shard and merged.
//
// phiT and phiXT (itemMajor) are the E-step's read-side copies of φ and
// φ' in item-major layout, rebuilt — by bit-exact transposition — after
// every M-step and on checkpoint restore. The per-cell topic loops then
// read one contiguous K-length row per matrix instead of a stride-V
// column, and the shard accumulators store their φ/φ' statistics in the
// same item-major layout so the loops' writes are contiguous too. For
// ITCAM the φ' slabs are empty.
//
// A frozen trainer is fold-in's: φ, θ' and φ' are held fixed and only
// FoldStep consumes its accumulators, so they carry no global slab —
// nothing item- or interval-sized is allocated, cleared or merged per
// shard — and the E-step leaves those statistics out. Its transposes
// are the model's own carried copy, never refreshed. The per-cell user
// statistics (θ, λ) are computed by the same operations in the same
// order either way.
type trainer struct {
	m         *Model
	data      *cuboid.Cuboid
	smoothing float64
	frozen    bool

	theta  []float64 // N×K1, shard s owns rows [lo, hi)
	lamNum []float64 // N
	lamDen []float64 // N
	*itemMajor
}

// itemMajor holds the transposes of a model's φ and φ' slabs, one row
// of K1 or K2 entries per item — per stride position, so a model that
// grows within its stride (GrowFrom) finds its new items' rows, all
// zero, already there.
type itemMajor struct {
	phiT  []float64 // stride×K1: transpose of Model.phi
	phiXT []float64 // stride×K2: transpose of Model.phiX
}

func newItemMajor(m *Model) *itemMajor {
	im := &itemMajor{phiT: make([]float64, len(m.phi)), phiXT: make([]float64, len(m.phiX))}
	im.refresh(m)
	return im
}

// refresh rebuilds the transposes from m's current φ and φ'.
// Transposition is pure data movement, so the E-step reads exactly the
// values it would have read from m.phi and m.phiX.
func (im *itemMajor) refresh(m *Model) {
	train.Transpose(im.phiT, m.phi, m.k1, m.stride)
	train.Transpose(im.phiXT, m.phiX, m.k2, m.stride)
}

// newTrainer sizes the statistics for running EM rounds over data
// against m, reading φ and φ' through im: a fresh model and fresh
// transposes (Train), or a grown model and the transposes it carries
// (fold-in).
func newTrainer(m *Model, data *cuboid.Cuboid, smoothing float64, im *itemMajor) *trainer {
	return &trainer{
		m:         m,
		data:      data,
		smoothing: smoothing,
		theta:     make([]float64, len(m.theta)),
		lamNum:    make([]float64, m.numUsers),
		lamDen:    make([]float64, m.numUsers),
		itemMajor: im,
	}
}

// accum is one shard's sufficient-statistic set: private global slabs
// plus the shard's slice of the shared user-dimension statistics. The φ
// and φ' slabs are item-major, mirroring trainer.phiT/phiXT; ctx has
// the layout of Model.ctx. Under a frozen trainer the three global
// slabs are nil.
type accum struct {
	tr     *trainer
	lo, hi int

	phiT  []float64 // V×K1
	ctx   []float64 // T×ctxWidth
	phiXT []float64 // V×K2
	pz    []float64 // user-path posterior scratch, length K1
	px    []float64 // time-path posterior scratch, length K2
	ll    float64
}

func (tr *trainer) NumUsers() int { return tr.m.numUsers }

func (tr *trainer) NewAccum(_, lo, hi int) train.Accum {
	m := tr.m
	a := &accum{
		tr: tr,
		lo: lo,
		hi: hi,
		pz: make([]float64, m.k1),
		px: make([]float64, m.k2),
	}
	if !tr.frozen {
		a.phiT = make([]float64, len(m.phi))
		a.ctx = make([]float64, len(m.ctx))
		a.phiXT = make([]float64, len(m.phiX))
	}
	return a
}

// Reset clears the shard's slabs and its disjoint range of the shared
// user-dimension statistics.
//
//tcam:hotpath
func (a *accum) Reset() {
	k1 := a.tr.m.k1
	train.Zero(a.tr.theta[a.lo*k1 : a.hi*k1])
	train.Zero(a.tr.lamNum[a.lo:a.hi])
	train.Zero(a.tr.lamDen[a.lo:a.hi])
	train.Zero(a.phiT)
	train.Zero(a.ctx)
	train.Zero(a.phiXT)
	a.ll = 0
}

// Merge folds src's global slabs into the receiver; the user-sharded
// statistics live in one shared slab and need no merging.
//
//tcam:hotpath
func (a *accum) Merge(src train.Accum) {
	s := src.(*accum)
	train.MergeInto(a.phiT, s.phiT)
	train.MergeInto(a.ctx, s.ctx)
	train.MergeInto(a.phiXT, s.phiXT)
	a.ll += s.ll
}

// EStep picks the shard's per-cell kernel by context kind, once.
func (tr *trainer) EStep(acc train.Accum) {
	a := acc.(*accum)
	if tr.m.k2 == 0 {
		tr.eStepItems(a)
	} else {
		tr.eStepTopics(a)
	}
}

// The two kernels below run the E-step over one shard's user range
// [lo, hi), accumulating sufficient statistics into the shard's slabs.
// All scratch is pre-sized in the accumulator so the per-iteration
// inner loop never touches the allocator.
//
// The scan is a linear walk of the cuboid's CSR columns — no index
// indirection — and every slab the K1/K2 inner loops touch (θ and θ'
// rows, their accumulator rows, the item-major φ/φ' rows and their
// accumulator rows, posterior scratch) is one contiguous K-length
// block, so the whole per-cell working set stays cache-resident. They
// are two functions because the per-cell arithmetic differs — the item
// context has no second dot product, no background path, and adds the
// bare cell mass to λ's denominator — and the floating-point operations
// and their order are exactly those the pre-refactor fixtures pin.

// eStepItems is the item-context (ITCAM) kernel: Equations (4)–(5) and
// the numerators of (8)–(11).
//
//tcam:hotpath
func (tr *trainer) eStepItems(a *accum) {
	m := tr.m
	k1, V := m.k1, m.numItems
	data := tr.data
	ts, vs, scores := data.CSR()
	phiT := tr.phiT
	frozen := tr.frozen
	pz := a.pz
	var ll float64
	for u := a.lo; u < a.hi; u++ {
		lam := m.lambda[u]
		thetaRow := m.theta[u*k1 : (u+1)*k1]
		thetaAcc := tr.theta[u*k1 : (u+1)*k1]
		lo, hi := data.UserSpan(u)
		for i := lo; i < hi; i++ {
			v, t, w := int(vs[i]), int(ts[i]), scores[i]

			pu := train.DotInto(pz, thetaRow, phiT[v*k1:(v+1)*k1])
			pt := m.ctx[t*V+v]
			denom := lam*pu + (1-lam)*pt
			if denom <= 0 {
				denom = 1e-300
			}
			ps1 := lam * pu / denom
			ll += w * math.Log(denom)

			if frozen {
				if pu > 0 {
					train.AddScaled(thetaAcc, w*ps1/pu, pz)
				}
			} else {
				if pu > 0 {
					train.AddScaledPair(thetaAcc, a.phiT[v*k1:(v+1)*k1], w*ps1/pu, pz)
				}
				a.ctx[t*V+v] += w * (1 - ps1)
			}
			tr.lamNum[u] += w * ps1
			tr.lamDen[u] += w
		}
	}
	a.ll = ll
}

// eStepTopics is the topic-mixture (TTCAM) kernel: Equations (4), (5)
// and (13), and the numerators of (8)–(9), (11), (15)–(16), with the
// mixture-path posteriors discounted by the background's when enabled.
//
//tcam:hotpath
func (tr *trainer) eStepTopics(a *accum) {
	m := tr.m
	k1, k2 := m.k1, m.k2
	data := tr.data
	ts, vs, scores := data.CSR()
	phiT := tr.phiT
	phiXT := tr.phiXT
	frozen := tr.frozen
	bw := m.backgroundW
	pz := a.pz
	px := a.px
	var ll float64
	for u := a.lo; u < a.hi; u++ {
		lam := m.lambda[u]
		thetaRow := m.theta[u*k1 : (u+1)*k1]
		thetaAcc := tr.theta[u*k1 : (u+1)*k1]
		lo, hi := data.UserSpan(u)
		for i := lo; i < hi; i++ {
			v, t, w := int(vs[i]), int(ts[i]), scores[i]

			pu := train.DotInto(pz, thetaRow, phiT[v*k1:(v+1)*k1])
			pt := train.DotInto(px, m.ctx[t*k2:(t+1)*k2], phiXT[v*k2:(v+1)*k2])
			mix := lam*pu + (1-lam)*pt
			denom := mix
			var pbg float64 // posterior mass of the background path
			if bw > 0 {
				denom = bw*m.background[v] + (1-bw)*mix
				if denom <= 0 {
					denom = 1e-300
				}
				pbg = bw * m.background[v] / denom
			} else if denom <= 0 {
				denom = 1e-300
			}
			ll += w * math.Log(denom)

			var ps1 float64
			if mix > 0 {
				ps1 = (1 - pbg) * lam * pu / mix
			}
			ps0 := (1 - pbg) - ps1

			if frozen {
				if pu > 0 && ps1 > 0 {
					train.AddScaled(thetaAcc, w*ps1/pu, pz)
				}
			} else {
				if pu > 0 && ps1 > 0 {
					train.AddScaledPair(thetaAcc, a.phiT[v*k1:(v+1)*k1], w*ps1/pu, pz)
				}
				if pt > 0 && ps0 > 0 {
					train.AddScaledPair(a.ctx[t*k2:(t+1)*k2], a.phiXT[v*k2:(v+1)*k2], w*ps0/pt, px)
				}
			}
			tr.lamNum[u] += w * ps1
			tr.lamDen[u] += w * (ps1 + ps0)
		}
	}
	a.ll = ll
}

// MStep applies Equations (8)–(11) and (15)–(16) from the merged
// statistics and returns the data log-likelihood under the parameters
// the iteration started from (the quantity EM never decreases).
func (tr *trainer) MStep(merged train.Accum) float64 {
	a := merged.(*accum)
	m := tr.m
	V := m.numItems
	tr.userStep(0, m.numUsers)
	train.Transpose(m.phi, a.phiT, V, m.k1) // item-major stats back to K1×V
	model.NormalizeRows(m.phi, V, tr.smoothing)
	copy(m.ctx, a.ctx)
	model.NormalizeRows(m.ctx, m.ctxWidth(V), tr.smoothing)
	train.Transpose(m.phiX, a.phiXT, V, m.k2) // item-major stats back to K2×V
	model.NormalizeRows(m.phiX, V, tr.smoothing)
	tr.refresh(m)
	if model.AssertionsEnabled {
		model.AssertRowStochastic("tcam phi", m.phi, V, 1e-9)
		model.AssertRowStochastic("tcam context", m.ctx, m.ctxWidth(V), 1e-9)
		model.AssertRowStochastic("tcam phiX", m.phiX, V, 1e-9)
	}
	return a.ll
}

// userStep is the user-dimension M-step — Equations (8) and (11)
// restricted to rows [lo, hi). The rows are independent, so the batch
// M-step is this over every user and fold-in is this over the new ones.
func (tr *trainer) userStep(lo, hi int) {
	m, k1 := tr.m, tr.m.k1
	rows := m.theta[lo*k1 : hi*k1]
	copy(rows, tr.theta[lo*k1:hi*k1])
	model.NormalizeRows(rows, k1, tr.smoothing)
	for u := lo; u < hi; u++ {
		if tr.lamDen[u] > 0 {
			m.lambda[u] = train.ClampLambda(tr.lamNum[u] / tr.lamDen[u])
		}
	}
	if model.AssertionsEnabled {
		model.AssertRowStochastic("tcam theta", rows, k1, 1e-9)
		model.AssertFiniteIn01("tcam lambda", m.lambda[lo:hi])
	}
}

// FoldStep applies userStep to [lo, hi), leaving every global parameter
// frozen, and returns the range's log-likelihood under the round's
// starting parameters (the only part of merged it consumes).
func (tr *trainer) FoldStep(merged train.Accum, lo, hi int) float64 {
	tr.userStep(lo, hi)
	return merged.(*accum).ll
}

// EncodeParams snapshots the full parameter state (the model wire
// format) for the engine's checkpoints.
func (tr *trainer) EncodeParams(w io.Writer) error { return tr.m.Write(w) }

// DecodeParams restores a checkpoint snapshot into the model being
// trained, rejecting dimension mismatches against the training config.
func (tr *trainer) DecodeParams(r io.Reader) error {
	loaded, err := Read(r)
	if err != nil {
		return err
	}
	m := tr.m
	if loaded.numUsers != m.numUsers || loaded.numIntervals != m.numIntervals ||
		loaded.numItems != m.numItems || loaded.k1 != m.k1 || loaded.k2 != m.k2 {
		return fmt.Errorf("tcam: checkpoint dimensions %d/%d/%d/K1=%d/K2=%d do not match training config %d/%d/%d/K1=%d/K2=%d",
			loaded.numUsers, loaded.numIntervals, loaded.numItems, loaded.k1, loaded.k2,
			m.numUsers, m.numIntervals, m.numItems, m.k1, m.k2)
	}
	loaded.label = m.label
	*m = *loaded
	tr.refresh(m)
	return nil
}

var (
	_ train.Trainable      = (*trainer)(nil)
	_ train.Checkpointable = (*trainer)(nil)
	_ train.UserFolder     = (*trainer)(nil)
)
