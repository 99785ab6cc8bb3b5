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
	stats, err := train.Run(tr, cfg.Config)
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
	m.ctx = make([]float64, T*m.k2)
	m.lambda = make([]float64, n)
	m.table = make([]float64, V*m.NumTopics())
	m.initialize(data, cfg.Seed)
	return newTrainer(m, data), nil
}

// initialize seeds θ, φ and the topic-mixture context (θ', φ') with
// jittered-uniform rows, an item context with the empirical
// per-interval item distribution, λ at one half and the background with
// the empirical item distribution. This is the only place training
// consumes randomness, drawing θ, φ, θ' and φ' in that order, each row
// by row; a checkpoint resume simply overwrites the initialized
// parameters, which is why resumed runs match uninterrupted ones
// bit-for-bit.
func (m *Model) initialize(data *cuboid.Cuboid, seed int64) {
	V, k := m.numItems, m.NumTopics()
	rng := rand.New(rand.NewSource(seed))
	fillJitteredRows(rng, m.theta, m.k1)
	layColumns(m.table, k, 0, jitteredRows(rng, m.k1, V), V)
	if m.k2 == 0 {
		ctx := make([]float64, m.numIntervals*V)
		for _, cell := range data.Cells() {
			ctx[int(cell.T)*V+int(cell.V)] += cell.Score
		}
		model.NormalizeRows(ctx, V, 1e-6)
		layColumns(m.table, k, m.k1, ctx, V)
	} else {
		fillJitteredRows(rng, m.ctx, m.k2)
		layColumns(m.table, k, m.k1, jitteredRows(rng, m.k2, V), V)
	}
	for u := range m.lambda {
		m.lambda[u] = 0.5
	}
	if m.backgroundW > 0 {
		background := make([]float64, V)
		for _, cell := range data.Cells() {
			background[cell.V] += cell.Score
		}
		model.NormalizeRows(background, V, 1e-9)
		layColumns(m.table, k, m.k1+m.k2, background, V)
	}
}

func fillJitteredRows(rng *rand.Rand, data []float64, cols int) {
	for i := range data {
		data[i] = 1 + 0.5*rng.Float64()
	}
	model.NormalizeRows(data, cols, 0)
}

// jitteredRows returns rows jittered-uniform rows of cols entries, for
// initialize to lay into the table.
func jitteredRows(rng *rand.Rand, rows, cols int) []float64 {
	data := make([]float64, rows*cols)
	fillJitteredRows(rng, data, cols)
	return data
}

// trainer adapts the E/M-step math to the train.Trainable contract. The
// θ and λ sufficient statistics are user-sharded — every shard writes a
// disjoint row range of one shared slab — so only the global φ, θ' and
// φ' statistics live in the accumulators and are merged.
//
// The E-step reads φ, φ', an item context and the background through
// the model's item-major table (ItemTopics), the only copy of them.
// The per-cell topic loops then read one contiguous row per item
// instead of a stride-V column per topic, and the accumulators store
// the statistics of the table's fitted columns item-major too, so the
// loops' writes are contiguous as well and the M-step normalizes them
// straight into those columns.
//
// A frozen trainer is fold-in's: φ, θ' and φ' are held fixed and only
// userStep follows its E-steps, so its accumulators carry no global
// slab — nothing item- or interval-sized is allocated, cleared or
// merged — and the E-step leaves those statistics out. It reads the
// table the model carries. The per-cell user statistics (θ, λ) are
// computed by the same operations in the same order either way.
type trainer struct {
	m      *Model
	data   *cuboid.Cuboid
	frozen bool

	theta  []float64 // N×K1, an E-step over [lo, hi) owns rows [lo, hi)
	lamNum []float64 // N
	lamDen []float64 // N
	sums   []float64 // fittedColumns(): the M-step's column sums
}

// newTrainer sizes the statistics for running EM rounds over data
// against m: a fresh model (Train) or a grown one (fold-in).
func newTrainer(m *Model, data *cuboid.Cuboid) *trainer {
	return &trainer{
		m:      m,
		data:   data,
		theta:  make([]float64, len(m.theta)),
		lamNum: make([]float64, m.numUsers),
		lamDen: make([]float64, m.numUsers),
		sums:   make([]float64, m.fittedColumns()),
	}
}

// accum is one shard's global sufficient-statistic slabs and posterior
// scratch. items is laid out like the table's fitted columns — row v
// holds [φ·v | θ′₀(v) … θ′_{T−1}(v)] (ITCAM) or [φ·v | φ′·v] (TTCAM)
// statistics — and ctx like Model.ctx. Under a frozen trainer both are
// nil.
type accum struct {
	items []float64 // V×fittedColumns()
	ctx   []float64 // T×K2
	pz    []float64 // user-path posterior scratch, length K1
	px    []float64 // time-path posterior scratch, length K2
	ll    float64
}

// fittedColumns is how many of the table's columns EM fits: all but the
// background, which stays the empirical distribution it started as.
func (m *Model) fittedColumns() int {
	if m.backgroundW > 0 {
		return m.NumTopics() - 1
	}
	return m.NumTopics()
}

func (tr *trainer) NumUsers() int { return tr.m.numUsers }

func (tr *trainer) NewAccum() train.Accum {
	m := tr.m
	a := &accum{
		pz: train.Scratch(m.k1),
		px: train.Scratch(m.k2),
	}
	if !tr.frozen {
		a.items = make([]float64, m.numItems*m.fittedColumns())
		a.ctx = make([]float64, len(m.ctx))
	}
	return a
}

// Reset clears the global slabs.
//
//tcam:hotpath
func (a *accum) Reset() {
	train.Zero(a.items)
	train.Zero(a.ctx)
	a.ll = 0
}

// Merge folds src's global slabs into the receiver; the user-sharded
// statistics live in one shared slab and need no merging.
//
//tcam:hotpath
func (a *accum) Merge(src train.Accum) {
	s := src.(*accum)
	train.MergeInto(a.items, s.items)
	train.MergeInto(a.ctx, s.ctx)
	a.ll += s.ll
}

// EStep clears the range's disjoint rows of the shared user-dimension
// statistics and picks the per-cell kernel by context kind, once.
func (tr *trainer) EStep(acc train.Accum, lo, hi int) {
	a := acc.(*accum)
	k1 := tr.m.k1
	train.Zero(tr.theta[lo*k1 : hi*k1])
	train.Zero(tr.lamNum[lo:hi])
	train.Zero(tr.lamDen[lo:hi])
	if tr.m.k2 == 0 {
		tr.eStepItems(a, lo, hi)
	} else {
		tr.eStepTopics(a, lo, hi)
	}
}

// The two kernels below run the E-step over one shard's user range
// [lo, hi), accumulating sufficient statistics into the accumulator.
// All scratch is pre-sized in the accumulator so the per-iteration
// inner loop never touches the allocator.
//
// The scan is a linear walk of each user's span of the cuboid's cells —
// no index indirection — and every slab the K1/K2 inner loops touch (θ and θ'
// rows, their accumulator rows, the item's table row and its
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
func (tr *trainer) eStepItems(a *accum, first, last int) {
	m := tr.m
	k1, k := m.k1, m.NumTopics() // no background: every column is fitted
	data := tr.data
	cells := data.Cells()
	table := m.table
	frozen := tr.frozen
	pz := a.pz
	var ll float64
	for u := first; u < last; u++ {
		lam := m.lambda[u]
		thetaRow := m.theta[u*k1 : (u+1)*k1]
		thetaAcc := tr.theta[u*k1 : (u+1)*k1]
		lo, hi := data.UserSpan(u)
		for _, cell := range cells[lo:hi] {
			v, t, w := int(cell.V), int(cell.T), cell.Score

			row := table[v*k : v*k+k]
			pu := train.DotInto(pz, thetaRow, row[:k1])
			pt := row[k1+t]
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
				acc := a.items[v*k : v*k+k]
				if pu > 0 {
					train.AddScaledPair(thetaAcc, acc[:k1], w*ps1/pu, pz)
				}
				acc[k1+t] += w * (1 - ps1)
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
func (tr *trainer) eStepTopics(a *accum, first, last int) {
	m := tr.m
	k1, k2 := m.k1, m.k2
	k, kf := m.NumTopics(), k1+k2 // table and statistics row lengths
	data := tr.data
	cells := data.Cells()
	table := m.table
	frozen := tr.frozen
	bw := m.backgroundW
	pz := a.pz
	px := a.px
	var ll float64
	for u := first; u < last; u++ {
		lam := m.lambda[u]
		thetaRow := m.theta[u*k1 : (u+1)*k1]
		thetaAcc := tr.theta[u*k1 : (u+1)*k1]
		lo, hi := data.UserSpan(u)
		for _, cell := range cells[lo:hi] {
			v, t, w := int(cell.V), int(cell.T), cell.Score

			row := table[v*k : v*k+k]
			pu := train.DotInto(pz, thetaRow, row[:k1])
			pt := train.DotInto(px, m.ctx[t*k2:(t+1)*k2], row[k1:k1+k2])
			mix := lam*pu + (1-lam)*pt
			denom := mix
			var pbg float64 // posterior mass of the background path
			if bw > 0 {
				bg := row[k1+k2]
				denom = bw*bg + (1-bw)*mix
				if denom <= 0 {
					denom = 1e-300
				}
				pbg = bw * bg / denom
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
				acc := a.items[v*kf : v*kf+kf]
				if pu > 0 && ps1 > 0 {
					train.AddScaledPair(thetaAcc, acc[:k1], w*ps1/pu, pz)
				}
				if pt > 0 && ps0 > 0 {
					train.AddScaledPair(a.ctx[t*k2:(t+1)*k2], acc[k1:], w*ps0/pt, px)
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
// the iteration started from (the quantity EM never decreases). φ and
// the item contexts or φ' are normalized from their item-major
// statistics straight into the table's columns, and TTCAM's θ' rows in
// place.
func (tr *trainer) MStep(merged train.Accum) float64 {
	a := merged.(*accum)
	m := tr.m
	V, kf := m.numItems, m.fittedColumns()
	tr.userStep(0, m.numUsers)
	normalizeColumns(m.table, m.NumTopics(), a.items, kf, V, tr.sums)
	copy(m.ctx, a.ctx)
	model.NormalizeRows(m.ctx, m.k2, Smoothing)
	if model.AssertionsEnabled {
		model.AssertRowStochastic("tcam item columns", m.columns(0, kf), V, 1e-9)
		if m.k2 > 0 {
			model.AssertRowStochastic("tcam context", m.ctx, m.k2, 1e-9)
		}
	}
	return a.ll
}

// normalizeColumns writes column j of the V×len(sums) item-major
// statistics src, normalized at Smoothing, into column j of dst, whose
// rows lie stride apart. It is NormalizeRows on the transpose — each
// column summed in ascending item order, each entry divided once — so
// the bits are the same; sums is the column scratch.
//
//tcam:hotpath
func normalizeColumns(dst []float64, stride int, src []float64, cols, V int, sums []float64) {
	train.Zero(sums)
	for v := 0; v < V; v++ {
		train.MergeInto(sums, src[v*cols:(v+1)*cols])
	}
	for j := range sums {
		sums[j] += Smoothing * float64(V) // the denominator
	}
	for v := 0; v < V; v++ {
		row := dst[v*stride : v*stride+cols]
		for j, x := range src[v*cols : (v+1)*cols] {
			row[j] = (x + Smoothing) / sums[j]
		}
	}
}

// userStep is the user-dimension M-step — Equations (8) and (11)
// restricted to rows [lo, hi). The rows are independent, so the batch
// M-step is this over every user and fold-in is this over the new ones.
func (tr *trainer) userStep(lo, hi int) {
	m, k1 := tr.m, tr.m.k1
	rows := m.theta[lo*k1 : hi*k1]
	copy(rows, tr.theta[lo*k1:hi*k1])
	model.NormalizeRows(rows, k1, Smoothing)
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
	return nil
}

var (
	_ train.Trainable      = (*trainer)(nil)
	_ train.Checkpointable = (*trainer)(nil)
)
