// Package tcam implements the Temporal Context-Aware Mixture model of
// Section 3.2 — both of the paper's variants on one mixture-EM core.
// The likelihood of user u rating item v during interval t is
//
//	P(v|u,t) = λu·Σ_z P(z|θu)P(v|φz) + (1−λu)·P(v|θ't)       (Eq. 1–2)
//
// and the variants differ only in how the temporal context θ't emits an
// item: ITCAM (Section 3.2.1) makes it a multinomial directly over
// items, one per interval; TTCAM (Section 3.2.2) makes it a multinomial
// over K2 shared time-oriented topics, each a multinomial over items:
//
//	P(v|θ't) = Σ_x P(v|φ'x)·P(x|θ't)                          (Eq. 12)
//
// A Model with K2 == 0 is an ITCAM, one with K2 > 0 a TTCAM; nothing
// else selects the kind. The user path (θ, φ, λ) and everything around
// the per-cell arithmetic — sharded statistics, M-step, checkpoints,
// growth, fold-in, the wire format — exist once. Parameters are learned
// with the EM updates of Equations (4)–(11) and (13)–(16); the
// iteration loop (sharding, merge order, convergence, checkpointing) is
// owned by internal/train, this package supplies the E/M-step math.
//
// Two extensions beyond the paper, both from its future-work list, ride
// on the topic-mixture context: an optional fixed background topic that
// absorbs noise (Config.Background) and incremental fitting of a new
// interval's temporal context against frozen topics (FitNewInterval).
package tcam

import (
	"errors"
	"fmt"

	"tcam/internal/cuboid"
	"tcam/internal/model"
	"tcam/internal/train"
)

// maxDenseCells guards ITCAM's T dense item-context columns of the
// table: one item distribution per interval is only sensible for modest
// catalogs (the paper's Digg and MovieLens runs). Beyond this size, use
// K2 > 0.
const maxDenseCells = 64 << 20

// Config parameterizes training.
type Config struct {
	// Config is the EM engine's policy: MaxIters, Tol, Shards, Workers,
	// Checkpoint and Hook. Shards — never Workers — fixes the learned
	// parameters' floating-point summation grouping.
	train.Config
	// K1 is the number of user-oriented topics. K2 is the number of
	// time-oriented topics; 0 trains ITCAM, whose temporal contexts are
	// item distributions with no topic layer (the paper's TTCAM
	// defaults are 60 and 40).
	K1 int
	K2 int
	// Seed drives the random initialization.
	Seed int64
	// Background, when positive, mixes a fixed empirical item
	// distribution θB into the likelihood with this weight:
	// P(v|u,t) = Background·θB(v) + (1−Background)·(TCAM mixture).
	// This is the noise-filtering extension the paper lists as future
	// work; it needs K2 > 0, and 0 disables it.
	Background float64
	// Label overrides the model name (the weighted variants report
	// "W-ITCAM" / "W-TTCAM").
	Label string
}

// Smoothing is the additive epsilon of every multinomial
// normalization, training's and fold-in's alike, keeping all
// generation probabilities positive. With FoldIters and FitIters it is
// one of the three numbers that shape what the streaming fold-in
// publishes (index.AdvanceFrom): partial-EM rounds for a new user's θu
// and λu, and for a new interval's temporal context under time topics
// (the item-context estimator is closed-form). They are constants, not
// configuration, so that a published bundle is a function of the boot
// bundle and the log prefix alone — two processes replaying one log
// cannot disagree by a flag — and so that fold-in ≡ batch EM restricted
// to the new user holds by construction: both normalize with this one
// value.
const (
	Smoothing = 1e-9
	FoldIters = 5
	FitIters  = 20
)

// DefaultConfig returns the paper's default TTCAM topic counts (Section
// 5.3.2) with the harness's standard EM settings.
func DefaultConfig() Config {
	return Config{Config: train.Config{MaxIters: 50, Tol: 1e-5}, K1: 60, K2: 40, Seed: 1}
}

// DefaultITCAMConfig is DefaultConfig for the item-context variant: no
// time topics, and the harness's smaller user-topic count.
func DefaultITCAMConfig() Config {
	cfg := DefaultConfig()
	cfg.K1, cfg.K2 = 40, 0
	return cfg
}

func (c Config) validate(data *cuboid.Cuboid) error {
	switch {
	case c.K1 <= 0 || c.K2 < 0:
		return fmt.Errorf("tcam: need K1 > 0 and K2 >= 0, got K1=%d K2=%d", c.K1, c.K2)
	case !validBackground(c.K2, c.Background):
		return fmt.Errorf("tcam: Background %v outside [0,1), or set without time topics (K2=%d)", c.Background, c.K2)
	}
	if data.NNZ() == 0 {
		return errors.New("tcam: empty training cuboid")
	}
	if c.K2 == 0 {
		return checkDense(data.NumIntervals(), data.NumItems())
	}
	return nil
}

// validBackground is the background-weight invariant shared by training
// configs and decoded models: a weight in [0,1) — NaN fails the
// comparison — and only on the topic-mixture context.
func validBackground(k2 int, w float64) bool {
	return w >= 0 && w < 1 && (k2 > 0 || w <= 0)
}

func checkDense(intervals, items int) error {
	if cells := intervals * items; cells > maxDenseCells {
		return fmt.Errorf("tcam: dense temporal context needs %d cells (max %d); use K2 > 0 for large catalogs", cells, maxDenseCells)
	}
	return nil
}

// Model is a trained TCAM. Parameter slices are row-major, and
// immutable once training returns: GrowFrom and FoldInUsersFrom derive
// new models that share the slabs they leave unchanged.
type Model struct {
	label string

	numUsers     int
	numIntervals int
	numItems     int
	k1, k2       int // k2 == 0: the temporal context emits items directly (ITCAM)

	theta  []float64 // N×K1: P(z|θu)
	ctx    []float64 // T×K2: TTCAM's P(x|θ't); empty for ITCAM, whose θ't are table columns
	lambda []float64 // N: λu

	backgroundW float64 // λB; 0 when disabled

	// table is ItemTopics, the one copy of every item-indexed parameter:
	// row v holds [φ·v | φ′·v (| θB(v))] for TTCAM and [φ·v | θ′₀(v) …
	// θ′_{T−1}(v)] for ITCAM, NumTopics() entries. It has stride rows: V
	// for a trained or decoded model, more where GrowFrom left room for
	// the catalog to grow into. The rows behind V are zero — the
	// probability a frozen topic gives an item it never saw.
	table  []float64
	stride int

	// grownFrom is the model GrowFrom derived this one from (through any
	// number of fold-ins), for the next growth to inherit from.
	grownFrom *Model
}

// Name returns the model label ("ITCAM", "W-TTCAM", ...).
func (m *Model) Name() string { return m.label }

// NumItems returns the item-catalog size.
func (m *Model) NumItems() int { return m.numItems }

// NumUsers returns the user count the model was trained on.
func (m *Model) NumUsers() int { return m.numUsers }

// NumIntervals returns the number of time intervals.
func (m *Model) NumIntervals() int { return m.numIntervals }

// K1 returns the number of user-oriented topics.
func (m *Model) K1() int { return m.k1 }

// K2 returns the number of time-oriented topics; 0 identifies an ITCAM.
func (m *Model) K2() int { return m.k2 }

// Lambda returns λu, the personal-interest influence probability of
// user u (Figures 10–11 plot its distribution).
func (m *Model) Lambda(u int) float64 { return m.lambda[u] }

// UserInterest returns P(·|θu) over user-oriented topics. Callers must
// not modify the slice.
func (m *Model) UserInterest(u int) []float64 { return m.theta[u*m.k1 : (u+1)*m.k1] }

// UserTopic returns a copy of P(·|φz), user-oriented topic z's item
// distribution.
func (m *Model) UserTopic(z int) []float64 { return m.Topic(z) }

// TemporalContext returns P(·|θ't): for ITCAM a fresh copy of table
// column K1+t, over items; for TTCAM ContextWeights(t), over the K2
// time-oriented topics, which callers must not modify.
func (m *Model) TemporalContext(t int) []float64 {
	if m.k2 == 0 {
		return m.columns(m.k1+t, 1)
	}
	return m.ContextWeights(t)
}

// TimeTopic returns a copy of P(·|φ'x), time-oriented topic x's item
// distribution.
func (m *Model) TimeTopic(x int) []float64 { return m.Topic(m.k1 + x) }

// Topic returns a fresh copy of ϕ_z̃ of Equation (21), expanded topic
// z's weight on every item — column z of ItemTopics: user-oriented
// topics first, then the interval contexts (ITCAM) or the time-oriented
// topics and the optional background (TTCAM). It returns nil when z is
// outside [0, NumTopics()).
func (m *Model) Topic(z int) []float64 {
	if z < 0 || z >= m.NumTopics() {
		return nil
	}
	return m.columns(z, 1)
}

// columns returns n columns of the table from column z on, each as a
// V-wide row, laid end to end: the topic-major form of the wire.
func (m *Model) columns(z, n int) []float64 {
	k, V := m.NumTopics(), m.numItems
	out := make([]float64, n*V)
	for v := 0; v < V; v++ {
		for j, p := range m.table[v*k+z : v*k+z+n] {
			out[j*V+v] = p
		}
	}
	return out
}

// layColumns writes the V-wide rows of src, laid end to end, into the
// k-wide table's columns z, z+1, …: row j's entry v lands at
// table[v*k+z+j].
func layColumns(table []float64, k, z int, src []float64, V int) {
	for j := 0; j*V < len(src); j++ {
		for v, p := range src[j*V : (j+1)*V] {
			table[v*k+z+j] = p
		}
	}
}

// Score implements the likelihood of Equations (1) and (12), including
// the optional background mixture, from item v's table row.
//
//tcam:hotpath
func (m *Model) Score(u, t, v int) float64 {
	k := m.NumTopics()
	row := m.table[v*k : v*k+k]
	var pu float64
	for z, th := range m.UserInterest(u) {
		pu += th * row[z]
	}
	lam := m.lambda[u]
	if m.k2 == 0 {
		return lam*pu + (1-lam)*row[m.k1+t]
	}
	var pt float64
	for x, c := range m.ContextWeights(t) {
		pt += c * row[m.k1+x]
	}
	mix := lam*pu + (1-lam)*pt
	if m.backgroundW > 0 {
		return m.backgroundW*row[m.k1+m.k2] + (1-m.backgroundW)*mix
	}
	return mix
}

// ScoreAll fills scores[v] with Score(u, t, v) for every item, one table
// row at a time. The per-topic weights and accumulation order are
// exactly those of QueryWeightsInto over the row (user topics
// ascending, then the interval's context — ITCAM's one pseudo-topic or
// TTCAM's time topics — then the background), so results are the
// index-based scorer's bit for bit without materializing the weight
// vector.
//
//tcam:hotpath
func (m *Model) ScoreAll(u, t int, scores []float64) {
	if len(scores) != m.numItems {
		panic(fmt.Sprintf("tcam: ScoreAll buffer %d, want %d", len(scores), m.numItems))
	}
	k, k1 := m.NumTopics(), m.k1
	lam := m.lambda[u]
	scale := 1 - m.backgroundW
	user, context := scale*lam, scale*(1-lam)
	theta, ctx := m.UserInterest(u), m.ContextWeights(t)
	// Two items at a time, in two independent chains: one item's sum is
	// a chain of dependent additions.
	for v := 0; v < len(scores); v += 2 {
		a, b := m.table[v*k:v*k+k], m.table[v*k:v*k+k]
		if v+1 < len(scores) {
			b = m.table[(v+1)*k : (v+2)*k]
		}
		var sa, sb float64
		for z, p := range theta {
			if wz := user * p; wz > 0 {
				sa += wz * a[z]
				sb += wz * b[z]
			}
		}
		if m.k2 == 0 {
			sa += (1 - lam) * a[k1+t]
			sb += (1 - lam) * b[k1+t]
		}
		for x, c := range ctx {
			if wz := context * c; wz > 0 {
				sa += wz * a[k1+x]
				sb += wz * b[k1+x]
			}
		}
		if wz := m.backgroundW; wz > 0 {
			sa += wz * a[k1+m.k2]
			sb += wz * b[k1+m.k2]
		}
		scores[v] = sa
		if v+1 < len(scores) {
			scores[v+1] = sb
		}
	}
}

// NumTopics returns the expanded topic-space size of Section 4.1: each
// ITCAM interval's context acts as one pseudo-topic (K1 + T); TTCAM has
// K1 + K2 plus one background pseudo-topic when enabled.
func (m *Model) NumTopics() int {
	switch {
	case m.k2 == 0:
		return m.k1 + m.numIntervals
	case m.backgroundW > 0:
		return m.k1 + m.k2 + 1
	default:
		return m.k1 + m.k2
	}
}

// QueryWeightsInto overwrites every entry of out, which must have
// length NumTopics(), with ϑq of Section 4.1 for query (u, t):
// ⟨λu·θu, (1−λu)·θ't⟩ (scaled by 1−λB with a trailing λB background
// entry when enabled). For ITCAM the temporal half is (1−λu) on
// interval t's pseudo-topic and zero elsewhere. It returns the temporal
// half's multiplier, (1−λB)·(1−λu): the one factor of it that depends
// on the user (model.TopicScorer).
//
//tcam:hotpath
func (m *Model) QueryWeightsInto(u, t int, out []float64) float64 {
	lam := m.lambda[u]
	scale := 1 - m.backgroundW
	for z, th := range m.UserInterest(u) {
		out[z] = scale * lam * th
	}
	context := scale * (1 - lam)
	tail := out[m.k1:]
	if m.k2 == 0 {
		train.Zero(tail)
		tail[t] = context // no background without time topics: scale is 1
		return context
	}
	for x, c := range m.ContextWeights(t) {
		tail[x] = context * c
	}
	if m.backgroundW > 0 {
		tail[m.k2] = m.backgroundW
	}
	return context
}

// ContextTopics returns the expanded topics a query weighs by θ't alone:
// TTCAM's K2 time-oriented topics. ITCAM's range is empty — each of its
// interval contexts already is one expanded topic.
func (m *Model) ContextTopics() (lo, hi int) { return m.k1, m.k1 + m.k2 }

// ContextWeights returns θ't over the context topics: K2 entries, none
// for ITCAM.
func (m *Model) ContextWeights(t int) []float64 { return m.ctx[t*m.k2 : (t+1)*m.k2] }

// ItemTopics returns the table: ϕ_z̃v of Equation (21) at v·NumTopics()+z̃,
// one row per stride position, zero behind NumItems(). Callers must not
// modify it.
func (m *Model) ItemTopics() []float64 { return m.table }

var _ model.TopicScorer = (*Model)(nil)
