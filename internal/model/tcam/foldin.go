package tcam

// Incremental model evolution for the streaming ingest loop:
// FitNewInterval estimates a fresh interval's temporal context from its
// ratings alone, Grow widens the interval/item dimensions against
// frozen parameters, and FoldInUsers fits new users' θu/λu by partial
// EM with every global parameter frozen. None of the three mutates the
// receiver — each returns a new Model (sharing the slabs it did not
// change), so the boot model stays a frozen base the updater can
// re-derive every snapshot from.

import (
	"fmt"
	"sort"

	"tcam/internal/cuboid"
	"tcam/internal/model"
	"tcam/internal/train"
)

// FoldInConfig parameterizes FoldInUsers.
type FoldInConfig struct {
	// Iters is the number of partial-EM rounds for the new users'
	// interests and mixing weights.
	Iters int
	// Smoothing is the additive epsilon for the θ row normalization,
	// matching the batch trainer's Config.Smoothing.
	Smoothing float64
	// Shards/Workers mirror the batch trainer's knobs; neither affects
	// the folded parameters (per-user statistics live in private rows).
	Shards  int
	Workers int
}

// FitNewInterval estimates the temporal context θ't of a previously
// unseen interval from its ratings alone, holding every other parameter
// frozen — the partial-EM update an online deployment runs when a new
// interval opens (with the user unknown or mixed, the user path is
// dropped and only the temporal context is fit). ratings maps dense
// item index to accumulated score; out-of-range or non-positive entries
// are dropped. The result is a row Grow accepts.
//
// For ITCAM the context is a multinomial directly over items, so the
// update is closed-form: the smoothed empirical item distribution of
// the interval — exactly the estimator initialize seeds training
// intervals with — over a catalog of numItems (≥ the trained size, to
// admit items newer than the model); iters is unused. For TTCAM it is
// iters rounds of EM on the K2-vector P(x|θ't) against the frozen time
// topics, which cannot see items beyond the trained catalog.
func (m *Model) FitNewInterval(ratings map[int]float64, numItems, iters int) []float64 {
	// Ascending item order, not map order: float addition is not
	// associative, so iterating the map directly would make the fitted θ'
	// bits depend on the runtime's randomized iteration and break fold-in
	// bit-identity across runs.
	items := make([]int, 0, len(ratings))
	for v := range ratings {
		items = append(items, v)
	}
	sort.Ints(items)
	weights := make([]float64, len(items))
	for i, v := range items {
		weights[i] = ratings[v]
	}
	return m.FitNewIntervalSorted(items, weights, numItems, iters)
}

// FitNewIntervalSorted is FitNewInterval over the ratings as parallel
// (item, accumulated score) columns in ascending item order, each item
// at most once — the form a cuboid's by-interval view yields without
// building a map.
func (m *Model) FitNewIntervalSorted(items []int, weights []float64, numItems, iters int) []float64 {
	if numItems < m.numItems || m.k2 > 0 {
		numItems = m.numItems
	}
	valid := func(i int) bool { return items[i] >= 0 && items[i] < numItems && weights[i] > 0 }
	if m.k2 == 0 {
		row := make([]float64, numItems)
		for i, v := range items {
			if valid(i) {
				row[v] = weights[i]
			}
		}
		model.NormalizeRows(row, numItems, 1e-6)
		return row
	}

	k2, S := m.k2, m.stride
	thetaNew := make([]float64, k2)
	for x := range thetaNew {
		thetaNew[x] = 1 / float64(k2)
	}
	if len(items) == 0 {
		return thetaNew
	}
	// Each rated item's P(v|φ'x) column, gathered once: the rounds below
	// then read one contiguous K2-row per item instead of striding φ'.
	w := make([]float64, 0, len(items))
	cols := make([]float64, 0, len(items)*k2)
	for i, v := range items {
		if !valid(i) {
			continue
		}
		w = append(w, weights[i])
		for x := 0; x < k2; x++ {
			cols = append(cols, m.phiX[x*S+v])
		}
	}
	acc := make([]float64, k2)
	px := make([]float64, k2)
	for it := 0; it < iters; it++ {
		train.Zero(acc)
		for j, wj := range w {
			pt := train.DotInto(px, thetaNew, cols[j*k2:(j+1)*k2])
			if pt <= 0 {
				continue
			}
			for x, p := range px {
				acc[x] += wj * p / pt
			}
		}
		copy(thetaNew, acc)
		model.NormalizeRows(thetaNew, k2, 1e-12)
	}
	return thetaNew
}

// Grow returns the model widened to numIntervals intervals and numItems
// items. The new items get zero probability in every item-indexed table
// (φ, φ', an item context, the background): under ITCAM a new item is
// reachable only through the temporal contexts that observed it, under
// TTCAM's frozen time topics not at all, until a full retrain.
// newContexts supplies the θ't row of each appended interval in order,
// from FitNewInterval, so numIntervals must equal
// NumIntervals()+len(newContexts). Every table whose shape the growth
// leaves alone is shared with the receiver, not copied.
func (m *Model) Grow(numIntervals, numItems int, newContexts [][]float64) (*Model, error) {
	return m.GrowFrom(nil, numIntervals, numItems, newContexts)
}

// GrowFrom is Grow given prev, an earlier growth of the same receiver
// (anything else, nil included, is ignored); the model is Grow's,
// parameter for parameter. φ, φ' and the background never change under
// growth — a wider catalog only needs more zeros behind each row — so
// they are laid out once, rows a stride apart with room behind the
// catalog (model.SpareItems), and every later growth that still fits
// the stride shares prev's slabs outright. Nothing is written to them
// again: the room was zero from the start. Storage that stays put is
// also what lets the TA index and the fold-in transposes derived from
// it be inherited by pointer comparison.
func (m *Model) GrowFrom(prev *Model, numIntervals, numItems int, newContexts [][]float64) (*Model, error) {
	if numItems < m.numItems {
		return nil, fmt.Errorf("tcam: cannot shrink items %d -> %d", m.numItems, numItems)
	}
	if numIntervals != m.numIntervals+len(newContexts) {
		return nil, fmt.Errorf("tcam: %d intervals need %d new contexts, got %d",
			numIntervals, numIntervals-m.numIntervals, len(newContexts))
	}
	if m.k2 == 0 {
		if err := checkDense(numIntervals, numItems); err != nil {
			return nil, err
		}
	}
	width := m.ctxWidth(numItems)
	for i, ctx := range newContexts {
		if len(ctx) != width {
			return nil, fmt.Errorf("tcam: new context %d has %d entries, want %d", i, len(ctx), width)
		}
	}
	V := m.numItems
	out := *m // θ and λ are unchanged, so shared
	out.numIntervals, out.numItems, out.grownFrom = numIntervals, numItems, m
	switch {
	case prev != nil && prev.grownFrom == m && numItems <= prev.stride:
		out.stride, out.itemMajor = prev.stride, prev.itemMajor
		out.phi, out.phiX, out.background = prev.phi, prev.phiX, prev.background
	case numItems <= m.stride:
		// The receiver's own rows already end in the new items' zeros.
	default:
		out.stride, out.itemMajor = numItems+model.SpareItems(numItems), nil
		out.phi = widenRows(m.phi, m.stride, out.stride, m.k1)
		out.phiX = widenRows(m.phiX, m.stride, out.stride, m.k2)
		if m.background != nil {
			out.background = widenRows(m.background, m.stride, out.stride, 1)
		}
	}
	out.ctx = widenRows(m.ctx, m.ctxWidth(V), width, numIntervals)
	for i, ctx := range newContexts {
		copy(out.ctx[(m.numIntervals+i)*width:], ctx)
	}
	return &out, nil
}

// SharedWith reports what m holds that is prev's own storage: the φ, φ'
// and background slabs, and fold-in's transposes of them.
func (m *Model) SharedWith(prev *Model) (slabs, transposes bool) {
	if prev == nil {
		return false, false
	}
	return &m.phi[0] == &prev.phi[0], m.itemMajor != nil && m.itemMajor == prev.itemMajor
}

// widenRows copies the oldCols-wide rows of src into a zeroed
// rows×newCols table; rows beyond src's stay zero. A table whose shape
// does not change is returned as is — parameter slabs are immutable, so
// the grown model shares it.
func widenRows(src []float64, oldCols, newCols, rows int) []float64 {
	if oldCols == newCols && len(src) == rows*newCols {
		return src
	}
	dst := make([]float64, rows*newCols)
	for r := 0; r*oldCols < len(src); r++ {
		copy(dst[r*newCols:], src[r*oldCols:(r+1)*oldCols])
	}
	return dst
}

// FoldInUsers returns the model extended to data.NumUsers() users. Users
// [NumUsers(), data.NumUsers()) start from the uniform interest and
// λ=1/2, then run cfg.Iters rounds of partial EM over their own cells
// with φ, θ' and φ' frozen — through the same accumulator and shard
// machinery as batch training, so folding in user u is bit-identical to
// batch EM restricted to u against the same frozen globals. data's
// interval/item dimensions must match the model (Grow first when the
// stream widened them); its cells for already-trained users are ignored.
func (m *Model) FoldInUsers(data *cuboid.Cuboid, cfg FoldInConfig) (*Model, error) {
	return m.FoldInUsersFrom(nil, nil, data, cfg)
}

// FoldInUsersFrom is FoldInUsers given prev, the result of an earlier
// fold-in from the same trained model: a new user u with kept[u] set
// takes (θu, λu) from prev instead of being folded again. The caller
// vouches that what u's rounds read — u's cells in data, and the φ, θ'
// and φ' entries those cells address — is what prev's fold read, which
// makes the copy an equality: the rounds are deterministic and a user's
// statistics live in rows no other user or shard touches. kept is
// indexed by user and may be shorter than the user range (missing
// entries fold); a kept user must exist in prev.
func (m *Model) FoldInUsersFrom(prev *Model, kept []bool, data *cuboid.Cuboid, cfg FoldInConfig) (*Model, error) {
	if data.NumIntervals() != m.numIntervals || data.NumItems() != m.numItems {
		return nil, fmt.Errorf("tcam: fold-in cuboid is %d intervals × %d items, model has %d × %d",
			data.NumIntervals(), data.NumItems(), m.numIntervals, m.numItems)
	}
	oldN, n := m.numUsers, data.NumUsers()
	if n < oldN {
		return nil, fmt.Errorf("tcam: fold-in cuboid has %d users, model already has %d", n, oldN)
	}
	k1 := m.k1
	out := *m // fold-in never writes the globals, so they are shared
	out.numUsers = n
	out.theta = make([]float64, n*k1)
	copy(out.theta, m.theta)
	for i := oldN * k1; i < len(out.theta); i++ {
		out.theta[i] = 1 / float64(k1)
	}
	out.lambda = make([]float64, n)
	copy(out.lambda, m.lambda)
	for u := oldN; u < n; u++ {
		out.lambda[u] = 0.5
	}
	var tr *trainer // sized on the first user that needs folding
	for lo := oldN; lo < n; {
		if lo < len(kept) && kept[lo] {
			if prev == nil || prev.k1 != k1 || lo >= prev.numUsers {
				return nil, fmt.Errorf("tcam: fold-in asked to keep user %d, which the previous model does not have", lo)
			}
			copy(out.theta[lo*k1:(lo+1)*k1], prev.theta[lo*k1:(lo+1)*k1])
			out.lambda[lo] = prev.lambda[lo]
			lo++
			continue
		}
		hi := lo + 1
		for hi < n && !(hi < len(kept) && kept[hi]) {
			hi++
		}
		if tr == nil {
			// The frozen φ and φ′ are transposed once per slab, not once per
			// fold: the copy stays with the slabs it was made from, through
			// GrowFrom, for as long as generations share them.
			if out.itemMajor == nil {
				out.itemMajor = newItemMajor(&out)
			}
			tr = newTrainer(&out, data, cfg.Smoothing, out.itemMajor)
			tr.frozen = true
		}
		if _, err := train.FoldIn(tr, lo, hi, train.FoldInConfig{
			Iters:   cfg.Iters,
			Shards:  cfg.Shards,
			Workers: cfg.Workers,
		}); err != nil {
			return nil, err
		}
		lo = hi
	}
	return &out, nil
}
