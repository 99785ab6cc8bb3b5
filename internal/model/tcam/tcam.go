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

// maxDenseCells guards ITCAM's dense T×V temporal-context table: one
// item distribution per interval is only sensible for modest catalogs
// (the paper's Digg and MovieLens runs). Beyond this size, use K2 > 0.
const maxDenseCells = 64 << 20

// Config parameterizes training.
type Config struct {
	// K1 is the number of user-oriented topics. K2 is the number of
	// time-oriented topics; 0 trains ITCAM, whose temporal contexts are
	// item distributions with no topic layer (the paper's TTCAM
	// defaults are 60 and 40).
	K1 int
	K2 int
	// MaxIters bounds EM; Tol is the relative log-likelihood improvement
	// under which training stops early.
	MaxIters int
	Tol      float64
	// Seed drives the random initialization.
	Seed int64
	// Workers caps E-step goroutines; non-positive means GOMAXPROCS. It
	// never affects the learned parameters.
	Workers int
	// Shards is the deterministic E-step shard count (0 means
	// train.DefaultShards). It fixes the floating-point summation
	// grouping: runs with equal Shards produce bit-identical parameters
	// regardless of Workers.
	Shards int
	// Smoothing is the additive epsilon for every multinomial
	// normalization, keeping all generation probabilities positive.
	Smoothing float64
	// Background, when positive, mixes a fixed empirical item
	// distribution θB into the likelihood with this weight:
	// P(v|u,t) = Background·θB(v) + (1−Background)·(TCAM mixture).
	// This is the noise-filtering extension the paper lists as future
	// work; it needs K2 > 0, and 0 disables it.
	Background float64
	// Label overrides the model name (the weighted variants report
	// "W-ITCAM" / "W-TTCAM").
	Label string
	// Checkpoint configures periodic parameter snapshots and resume; the
	// zero value disables them.
	Checkpoint train.CheckpointConfig
	// Hook, when non-nil, observes every EM iteration.
	Hook func(model.IterStat)
}

// Smoothing is the trainer's default additive epsilon and, with
// FoldIters and FitIters, one of the three numbers that shape what the
// streaming fold-in publishes (index.AdvanceFrom): partial-EM rounds for
// a new user's θu and λu, and for a new interval's temporal context
// under time topics (the item-context estimator is closed-form). They
// are constants, not configuration, so that a published bundle is a
// function of the boot bundle and the log prefix alone — two processes
// replaying one log cannot disagree by a flag — and so that fold-in ≡
// batch EM restricted to the new user holds against the smoothing a
// default-trained bundle was normalized with.
const (
	Smoothing = 1e-9
	FoldIters = 5
	FitIters  = 20
)

// DefaultConfig returns the paper's default TTCAM topic counts (Section
// 5.3.2) with the harness's standard EM settings.
func DefaultConfig() Config {
	return Config{K1: 60, K2: 40, MaxIters: 50, Tol: 1e-5, Seed: 1, Smoothing: Smoothing}
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
	case c.MaxIters <= 0:
		return fmt.Errorf("tcam: MaxIters must be positive, got %d", c.MaxIters)
	case c.Smoothing < 0:
		return fmt.Errorf("tcam: negative smoothing %v", c.Smoothing)
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
// immutable once training returns: Grow and FoldInUsers derive new
// models that share the slabs they leave unchanged.
type Model struct {
	label string

	numUsers     int
	numIntervals int
	numItems     int
	k1, k2       int // k2 == 0: the temporal context emits items directly (ITCAM)

	// stride is the row stride of φ, φ′ and θB: V for a trained or
	// decoded model, more where Grow left room for the catalog to grow
	// into. Whatever lies between V and stride is zero — the probability
	// a frozen topic gives an item it never saw.
	stride int

	theta  []float64 // N×K1: P(z|θu)
	phi    []float64 // K1×stride: P(v|φz)
	ctx    []float64 // T×ctxWidth: P(·|θ't), over items (ITCAM) or time topics (TTCAM)
	phiX   []float64 // K2×stride: P(v|φ'x); empty for ITCAM
	lambda []float64 // N: λu

	backgroundW float64   // λB; 0 when disabled
	background  []float64 // 1×stride: θB, empirical item distribution

	// grownFrom is the model Grow derived this one from (through any
	// number of fold-ins), and itemMajor the fold-in trainer's transposes
	// of exactly these φ and φ′ slabs. Both exist for the next derivation
	// to inherit from (GrowFrom, FoldInUsersFrom); scoring reads neither.
	grownFrom *Model
	itemMajor *itemMajor
}

// ctxWidth is the row length of the temporal-context table under the
// given catalog size: V for the item context, K2 for the topic mixture.
func (m *Model) ctxWidth(numItems int) int {
	if m.k2 == 0 {
		return numItems
	}
	return m.k2
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

// UserTopic returns P(·|φz), user-oriented topic z's item distribution.
func (m *Model) UserTopic(z int) []float64 { return m.phi[z*m.stride : z*m.stride+m.numItems] }

// TemporalContext returns P(·|θ't): over items for ITCAM, over the K2
// time-oriented topics for TTCAM.
func (m *Model) TemporalContext(t int) []float64 {
	w := m.ctxWidth(m.numItems)
	return m.ctx[t*w : (t+1)*w]
}

// TimeTopic returns P(·|φ'x), time-oriented topic x's item distribution.
func (m *Model) TimeTopic(x int) []float64 { return m.phiX[x*m.stride : x*m.stride+m.numItems] }

// Score implements the likelihood of Equations (1) and (12), including
// the optional background mixture.
//
//tcam:hotpath
func (m *Model) Score(u, t, v int) float64 {
	S := m.stride
	var pu float64
	for z, th := range m.UserInterest(u) {
		pu += th * m.phi[z*S+v]
	}
	lam := m.lambda[u]
	if m.k2 == 0 {
		return lam*pu + (1-lam)*m.ctx[t*m.numItems+v]
	}
	var pt float64
	for x, c := range m.TemporalContext(t) {
		pt += c * m.phiX[x*S+v]
	}
	mix := lam*pu + (1-lam)*pt
	if m.backgroundW > 0 {
		return m.backgroundW*m.background[v] + (1-m.backgroundW)*mix
	}
	return mix
}

// ScoreAll fills scores[v] with Score(u, t, v) for every item in one
// pass over the topic matrices. For TTCAM the per-topic weights and
// accumulation order are exactly those of QueryWeightsInto over
// TopicItems (user topics ascending, then time topics, then the
// background), so results stay bit-identical to the index-based scorer
// without materializing the weight vector; ITCAM seeds the buffer with
// the interval's context and adds the user topics onto it.
//
//tcam:hotpath
func (m *Model) ScoreAll(u, t int, scores []float64) {
	if len(scores) != m.numItems {
		panic(fmt.Sprintf("tcam: ScoreAll buffer %d, want %d", len(scores), m.numItems))
	}
	lam := m.lambda[u]
	scale := 1 - m.backgroundW
	ctx := m.TemporalContext(t)
	if m.k2 == 0 {
		for v := range scores {
			scores[v] = (1 - lam) * ctx[v]
		}
	} else {
		train.Zero(scores)
	}
	addTopics(scores, scale*lam, m.UserInterest(u), m.phi, m.stride)
	if m.k2 > 0 {
		addTopics(scores, scale*(1-lam), ctx, m.phiX, m.stride)
	}
	if wz := m.backgroundW; wz > 0 {
		for v := range scores {
			scores[v] += wz * m.background[v]
		}
	}
}

// addTopics adds Σ_z scale·mix[z]·topics[z] into scores, skipping
// zero-weight topics; topics is row-major, len(mix) rows of len(scores)
// entries at the given stride.
//
//tcam:hotpath
func addTopics(scores []float64, scale float64, mix, topics []float64, stride int) {
	V := len(scores)
	for z, p := range mix {
		wz := scale * p
		if wz <= 0 {
			continue
		}
		row := topics[z*stride : z*stride+V]
		for v := range scores {
			scores[v] += wz * row[v]
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

// QueryWeights returns ϑq of Section 4.1 for query (u, t); see
// QueryWeightsInto.
func (m *Model) QueryWeights(u, t int) []float64 {
	out := make([]float64, m.NumTopics())
	m.QueryWeightsInto(u, t, out)
	return out
}

// QueryWeightsInto is the allocation-free form of QueryWeights: it
// overwrites every entry of out, which must have length NumTopics(),
// with ϑq = ⟨λu·θu, (1−λu)·θ't⟩ (scaled by 1−λB with a trailing λB
// background entry when enabled). For ITCAM the temporal half is
// (1−λu) on interval t's pseudo-topic and zero elsewhere. It returns
// the temporal half's multiplier, (1−λB)·(1−λu): the one factor of it
// that depends on the user (model.ContextScorer).
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
	for x, c := range m.TemporalContext(t) {
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

// TopicItems returns ϕ_z̃ of Equation (21): user-oriented topics first,
// then the interval contexts (ITCAM) or the time-oriented topics and
// the optional background (TTCAM).
//
//tcam:hotpath
func (m *Model) TopicItems(z int) []float64 {
	switch {
	case z < m.k1:
		return m.UserTopic(z)
	case m.k2 == 0:
		return m.TemporalContext(z - m.k1)
	case z < m.k1+m.k2:
		return m.TimeTopic(z - m.k1)
	default:
		return m.background[:m.numItems]
	}
}

var (
	_ model.BulkScorer    = (*Model)(nil)
	_ model.ContextScorer = (*Model)(nil)
)
