package index

// Advance is the bundle-level fold-in facade behind the streaming
// ingest loop: it derives a fresh serving bundle from a frozen boot
// bundle plus the stream state accumulated since boot — grown
// vocabularies, a grown time grid, and the stream's cuboid — without
// touching any trained parameter of existing users. The composition is
//
//	new-interval θ′ estimation (FitNewInterval, one row per interval
//	the stream opened)  →  Grow (re-layout over the wider interval and
//	item dimensions)    →  FoldInUsers (partial EM for the new users
//	against every global frozen).
//
// Because each step is deterministic and starts from the immutable
// boot bundle, the advanced bundle is a pure function of (boot, stream
// state): replaying the same log prefix after a crash re-derives a
// bit-identical artifact, which is what makes the updater's publish
// loop idempotent.

import (
	"fmt"

	"tcam/internal/cuboid"
	"tcam/internal/dataset"
	"tcam/internal/model/tcam"
)

// AdvanceConfig parameterizes Bundle.Advance.
type AdvanceConfig struct {
	// FoldIters is the number of partial-EM rounds for new users'
	// interests (θu) and mixing weights (λu).
	FoldIters int
	// FitIters is the number of partial-EM rounds for a new interval's
	// temporal context under TTCAM (ITCAM's estimator is closed-form
	// and ignores it).
	FitIters int
	// Smoothing is the additive epsilon for the folded θ rows.
	Smoothing float64
	// Shards/Workers mirror the batch trainer's knobs; neither affects
	// the folded parameters.
	Shards  int
	Workers int
}

// DefaultAdvanceConfig mirrors the models' fold-in defaults.
func DefaultAdvanceConfig() AdvanceConfig {
	return AdvanceConfig{FoldIters: 5, FitIters: 20, Smoothing: 1e-9}
}

// Advance derives a grown bundle from the (frozen) receiver. stream
// holds only events observed since boot, with dimensions equal to the
// grown vocabularies — cells of already-trained users contribute only
// to new-interval contexts, never to their own frozen parameters.
// users/items must extend the boot vocabularies in place (boot names
// as a prefix, stream arrivals appended), and grid must extend the
// boot grid to stream.NumIntervals() intervals. The receiver is not
// mutated.
func (b *Bundle) Advance(stream *cuboid.Cuboid, grid dataset.TimeGrid, users, items []string, cfg AdvanceConfig) (*Bundle, error) {
	if len(users) != stream.NumUsers() || len(items) != stream.NumItems() {
		return nil, fmt.Errorf("index: advance vocabularies (%d users, %d items) disagree with the stream cuboid (%d × %d)",
			len(users), len(items), stream.NumUsers(), stream.NumItems())
	}
	if grid.Num != stream.NumIntervals() {
		return nil, fmt.Errorf("index: advance grid has %d intervals, stream cuboid %d", grid.Num, stream.NumIntervals())
	}
	if len(users) < len(b.Users) || len(items) < len(b.Items) {
		return nil, fmt.Errorf("index: advance cannot shrink vocabularies (%d -> %d users, %d -> %d items)",
			len(b.Users), len(users), len(b.Items), len(items))
	}
	for u, name := range b.Users {
		if users[u] != name {
			return nil, fmt.Errorf("index: advance user vocabulary is not a boot extension (index %d: %q != %q)", u, users[u], name)
		}
	}
	for v, name := range b.Items {
		if items[v] != name {
			return nil, fmt.Errorf("index: advance item vocabulary is not a boot extension (index %d: %q != %q)", v, items[v], name)
		}
	}

	m := b.Model
	contexts := make([][]float64, 0, grid.Num-m.NumIntervals())
	for t := m.NumIntervals(); t < grid.Num; t++ {
		contexts = append(contexts, m.FitNewInterval(intervalRatings(stream, t), len(items), cfg.FitIters))
	}
	grown, err := m.Grow(grid.Num, len(items), contexts)
	if err != nil {
		return nil, err
	}
	folded, err := grown.FoldInUsers(stream, tcam.FoldInConfig{
		Iters: cfg.FoldIters, Smoothing: cfg.Smoothing, Shards: cfg.Shards, Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	out := New(folded, grid, users, items)
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// intervalRatings aggregates interval t's stream events into the
// item → total-score map FitNewInterval estimates a context from. The
// by-interval CSR view makes this one contiguous scan.
func intervalRatings(c *cuboid.Cuboid, t int) map[int]float64 {
	_, vs, scores := c.IntervalCSR()
	lo, hi := c.IntervalSpan(t)
	r := make(map[int]float64, hi-lo)
	for i := lo; i < hi; i++ {
		r[int(vs[i])] += scores[i]
	}
	return r
}
