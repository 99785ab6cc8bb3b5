package index

// Advance is the bundle-level fold-in facade behind the streaming
// ingest loop: it derives a fresh serving bundle from a frozen boot
// bundle plus the stream state accumulated since boot — grown
// vocabularies, a grown time grid, and the stream's cuboid — without
// touching any trained parameter of existing users. The composition is
//
//	new-interval θ′ estimation (FitNewInterval, one row per interval
//	the stream opened)  →  GrowFrom (re-layout over the wider interval
//	and item dimensions)  →  FoldInUsersFrom (partial EM for the new
//	users against every global frozen).
//
// Because each step is deterministic and starts from the immutable
// boot bundle, the advanced bundle is a pure function of (boot, stream
// state): replaying the same log prefix after a crash re-derives a
// bit-identical artifact, which is what makes the updater's publish
// loop idempotent.
//
// AdvanceFrom is the same composition given the previous Advanced —
// the stream cuboid the last derivation consumed and the bundle it
// produced — as a cache, never an authority. A θ′ row and a folded
// user's (θu, λu) are each a pure function of a few inputs; where this
// derivation's inputs are, by comparison, the previous one's, the
// previous value is the value and is taken over, and everything else
// is recomputed by the code that computes it with nothing carried.
// Advance is AdvanceFrom with nothing carried, so the two cannot drift
// apart (DESIGN.md §15).

import (
	"fmt"
	"slices"

	"tcam/internal/cuboid"
	"tcam/internal/dataset"
	"tcam/internal/model/tcam"
)

// AdvanceConfig is empty: everything that shapes a published θ or λ —
// fold-in rounds, interval-fit rounds, smoothing — is a constant of
// internal/model/tcam, so published = f(boot bundle, log prefix) holds
// with no "and the same flags". The type, DefaultAdvanceConfig and
// Advance's last parameter remain only because bench/, which may not be
// edited, compiles against them (ROADMAP item 8e).
type AdvanceConfig struct{}

// DefaultAdvanceConfig returns the only AdvanceConfig there is.
func DefaultAdvanceConfig() AdvanceConfig { return AdvanceConfig{} }

// Advanced is one derivation's result together with what the next
// derivation may inherit from it.
type Advanced struct {
	Bundle *Bundle

	// What this derivation took over from the previous one and what it
	// computed: θ′ rows of stream-opened intervals, and folded users.
	ContextsKept, ContextsFit int
	UsersKept, UsersFolded    int
	// Whether the model's item-major table (ItemTopics, the model's only
	// copy of φ, φ′ and the background, or of φ and the item contexts) is
	// the previous derivation's own storage rather than a new layout: the
	// catalog still fits its stride and the growth adds no column. An
	// item context is a column, so under ITCAM that holds only while the
	// stream has opened no interval.
	TableShared bool

	boot   *Bundle        // the receiver the bundle was derived from
	stream *cuboid.Cuboid // the stream cuboid it was derived over
}

// Advance derives a grown bundle from the (frozen) receiver. stream
// holds only events observed since boot, with dimensions equal to the
// grown vocabularies — cells of already-trained users contribute only
// to new-interval contexts, never to their own frozen parameters.
// users/items must extend the boot vocabularies in place (boot names
// as a prefix, stream arrivals appended), and grid must extend the
// boot grid to stream.NumIntervals() intervals. The receiver is not
// mutated.
func (b *Bundle) Advance(stream *cuboid.Cuboid, grid dataset.TimeGrid, users, items []string, _ AdvanceConfig) (*Bundle, error) {
	adv, err := b.AdvanceFrom(nil, stream, grid, users, items)
	if err != nil {
		return nil, err
	}
	return adv.Bundle, nil
}

// AdvanceFrom is Advance inheriting from prev, an earlier derivation
// from the same receiver (anything else, nil included, inherits
// nothing). The bundle is Advance's, bit for bit:
//
//   - The θ′ row of a stream-opened interval t is a function of t's
//     stream cells, the boot model and the row width. It
//     is prev's row when t's cells in stream are exactly t's cells in
//     prev's stream and the width is unchanged (an item context is as
//     wide as the catalog, so a new item refits every open row).
//   - A folded user's (θu, λu) is a function of u's stream cells, the
//     frozen φ and φ′ entries of the items in them — boot values, or
//     zeros for stream-born items, either way fixed — and the θ′ rows of
//     the intervals in them. It is prev's when u's cells are exactly
//     u's cells in prev's stream and none lies in an interval whose row
//     was refit just above.
func (b *Bundle) AdvanceFrom(prev *Advanced, stream *cuboid.Cuboid, grid dataset.TimeGrid, users, items []string) (*Advanced, error) {
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
	if prev != nil && prev.boot != b {
		prev = nil
	}
	adv := &Advanced{boot: b, stream: stream}

	m := b.Model
	width := m.K2()
	if width == 0 {
		width = len(items)
	}
	contexts := make([][]float64, 0, grid.Num-m.NumIntervals())
	refit := make([]bool, grid.Num) // stream-opened intervals whose θ′ row is not prev's
	for t := m.NumIntervals(); t < grid.Num; t++ {
		if prev != nil && t < prev.stream.NumIntervals() && slices.Equal(intervalCells(prev.stream, t), intervalCells(stream, t)) {
			// An item context comes back as a copy of prev's table column.
			if row := prev.Bundle.Model.TemporalContext(t); len(row) == width {
				contexts = append(contexts, row)
				adv.ContextsKept++
				continue
			}
		}
		vs, weights := intervalRatings(stream, t)
		contexts = append(contexts, m.FitNewInterval(vs, weights, len(items), tcam.FitIters))
		refit[t] = true
		adv.ContextsFit++
	}
	var before *tcam.Model // the previous derivation's model, grown from m like this one
	if prev != nil {
		before = prev.Bundle.Model
	}
	grown, err := m.GrowFrom(before, grid.Num, len(items), contexts)
	if err != nil {
		return nil, err
	}

	var kept []bool // by user; true takes (θu, λu) from before
	if prev != nil {
		kept = make([]bool, len(users))
		for u := m.NumUsers(); u < before.NumUsers() && u < len(users); u++ {
			cells := userCells(stream, u)
			kept[u] = slices.Equal(userCells(prev.stream, u), cells) &&
				!slices.ContainsFunc(cells, func(c cuboid.Cell) bool { return refit[c.T] })
			if kept[u] {
				adv.UsersKept++
			}
		}
	}
	adv.UsersFolded = len(users) - m.NumUsers() - adv.UsersKept
	folded, err := grown.FoldInUsersFrom(before, kept, stream, tcam.FoldIters)
	if err != nil {
		return nil, err
	}
	adv.TableShared = before != nil && &folded.ItemTopics()[0] == &before.ItemTopics()[0]
	adv.Bundle = New(folded, grid, users, items)
	if err := adv.Bundle.Validate(); err != nil {
		return nil, err
	}
	return adv, nil
}

// intervalRatings aggregates interval t's stream events into the
// ascending (item, total score) columns FitNewInterval estimates a
// context from. The by-interval order makes this one contiguous scan;
// an item's scores add up in cell order.
func intervalRatings(c *cuboid.Cuboid, t int) (items []int, weights []float64) {
	total := make([]float64, c.NumItems())
	for _, cell := range intervalCells(c, t) {
		total[cell.V] += cell.Score
	}
	for v, w := range total {
		if w > 0 {
			items = append(items, v)
			weights = append(weights, w)
		}
	}
	return items, weights
}

// intervalCells returns interval t's span of c's by-interval cells.
func intervalCells(c *cuboid.Cuboid, t int) []cuboid.Cell {
	lo, hi := c.IntervalSpan(t)
	return c.IntervalCells()[lo:hi]
}

// userCells returns user u's span of c's by-user cells.
func userCells(c *cuboid.Cuboid, u int) []cuboid.Cell {
	lo, hi := c.UserSpan(u)
	return c.Cells()[lo:hi]
}
