package tcam

// Incremental model evolution for the streaming ingest loop:
// FitNewInterval estimates a fresh interval's temporal context from its
// ratings alone, GrowFrom widens the interval/item dimensions against
// frozen parameters, and FoldInUsersFrom fits new users' θu/λu by
// partial EM with every global parameter frozen. None of the three
// mutates the receiver — each returns a new Model (sharing the slabs it
// did not change), so the boot model stays a frozen base the updater
// can re-derive every snapshot from.

import (
	"fmt"
	"slices"

	"tcam/internal/cuboid"
	"tcam/internal/model"
	"tcam/internal/train"
)

// FitNewInterval estimates the temporal context θ't of a previously
// unseen interval from its ratings alone, holding every other parameter
// frozen — the partial-EM update an online deployment runs when a new
// interval opens (with the user unknown or mixed, the user path is
// dropped and only the temporal context is fit). The ratings are
// parallel (item, accumulated score) columns in ascending item order,
// each item at most once — the form a cuboid's by-interval view yields.
// Ascending order, not map order, because float addition is not
// associative: the fitted θ' bits must not depend on an iteration order.
// Out-of-range or non-positive entries are dropped. The result is a row
// GrowFrom accepts.
//
// For ITCAM the context is a multinomial directly over items, so the
// update is closed-form: the smoothed empirical item distribution of
// the interval — exactly the estimator initialize seeds training
// intervals with — over a catalog of numItems (≥ the trained size, to
// admit items newer than the model); iters is unused. For TTCAM it is
// iters rounds of EM on the K2-vector P(x|θ't) against the frozen time
// topics, which cannot see items beyond the trained catalog.
func (m *Model) FitNewInterval(items []int, weights []float64, numItems, iters int) []float64 {
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

	k1, k2, k := m.k1, m.k2, m.NumTopics()
	thetaNew := make([]float64, k2)
	for x := range thetaNew {
		thetaNew[x] = 1 / float64(k2)
	}
	if len(items) == 0 {
		return thetaNew
	}
	// Each rated item's P(v|φ'x) over x, a run of its table row, gathered
	// once: the rounds below then read one compact array.
	w := make([]float64, 0, len(items))
	cols := make([]float64, 0, len(items)*k2)
	for i, v := range items {
		if valid(i) {
			w = append(w, weights[i])
			cols = append(cols, m.table[v*k+k1:v*k+k1+k2]...)
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

// GrowFrom returns the model widened to numIntervals intervals and
// numItems items. The new items get zero probability in every
// item-indexed parameter (φ, φ', an item context, the background):
// under ITCAM a new item is reachable only through the temporal
// contexts that observed it, under TTCAM's frozen time topics not at
// all, until a full retrain.
// newContexts supplies the θ't row of each appended interval in order,
// from FitNewInterval, so numIntervals must equal
// NumIntervals()+len(newContexts). Every table whose shape the growth
// leaves alone is shared with the receiver, not copied.
//
// prev is an earlier growth of the same receiver (anything else, nil
// included, is ignored); the model is the one GrowFrom(nil, …) returns,
// parameter for parameter. The table follows one rule for both kinds.
// An ITCAM context is a column of it, so a growth that opens intervals
// copies the receiver's rows into a wider table and lays the new
// contexts into the new columns. Otherwise a wider catalog needs only
// more zero rows behind the table, so a table that has to be widened
// is copied once with room behind the catalog (model.SpareItems), and
// every later growth with prev's columns that still fits that room
// shares prev's table outright. Nothing is written to it again: the
// room was zero from the start. Storage that stays put lets the TA
// index inherit by pointer.
func (m *Model) GrowFrom(prev *Model, numIntervals, numItems int, newContexts [][]float64) (*Model, error) {
	if numItems < m.numItems {
		return nil, fmt.Errorf("tcam: cannot shrink items %d -> %d", m.numItems, numItems)
	}
	if numIntervals != m.numIntervals+len(newContexts) {
		return nil, fmt.Errorf("tcam: %d intervals need %d new contexts, got %d",
			numIntervals, numIntervals-m.numIntervals, len(newContexts))
	}
	width := m.k2
	if m.k2 == 0 {
		if err := checkDense(numIntervals, numItems); err != nil {
			return nil, err
		}
		width = numItems
	}
	for i, ctx := range newContexts {
		if len(ctx) != width {
			return nil, fmt.Errorf("tcam: new context %d has %d entries, want %d", i, len(ctx), width)
		}
	}
	out := *m // θ and λ are unchanged, so shared
	out.numIntervals, out.numItems, out.grownFrom = numIntervals, numItems, m
	k0, k := m.NumTopics(), out.NumTopics()
	if m.k2 > 0 && len(newContexts) > 0 {
		// A fresh slab: the receiver's θ' rows stay as they are.
		out.ctx = slices.Concat(append([][]float64{m.ctx}, newContexts...)...)
	}
	fits := prev != nil && prev.grownFrom == m && numItems <= prev.stride && prev.NumTopics() == k
	switch {
	case fits:
		out.stride = prev.stride
	case numItems > m.stride:
		out.stride = numItems + model.SpareItems(numItems)
	}
	switch {
	case k > k0:
		out.table = make([]float64, out.stride*k)
		for v := 0; v < m.numItems; v++ {
			copy(out.table[v*k:], m.table[v*k0:(v+1)*k0])
		}
		for i, ctx := range newContexts {
			layColumns(out.table, k, k0+i, ctx, numItems)
		}
	case fits:
		out.table = prev.table
	case out.stride > m.stride:
		out.table = make([]float64, out.stride*k)
		copy(out.table, m.table)
	default:
		// The receiver's own rows already end in the new items' zeros.
	}
	return &out, nil
}

// FoldInUsersFrom returns the model extended to data.NumUsers() users.
// Users [NumUsers(), data.NumUsers()) start from the uniform interest
// and λ=1/2, then run iters rounds of partial EM over their own cells
// with φ, θ' and φ' frozen: each round is batch training's reduce over
// the new users followed by its user-dimension M-step (userStep) on
// them, at the one Smoothing training normalizes with,
// so folding in user u is bit-identical to batch EM restricted to u
// against the same frozen globals. data's interval/item dimensions
// must match the model (GrowFrom first when the stream widened them);
// its cells for already-trained users are ignored.
//
// prev is the result of an earlier fold-in from the same trained model,
// or nil: a new user u with kept[u] set takes (θu, λu) from prev instead
// of being folded again. The caller
// vouches that what u's rounds read — u's cells in data, and the φ, θ'
// and φ' entries those cells address — is what prev's fold read, which
// makes the copy an equality: the rounds are deterministic and a user's
// statistics live in rows no other user or shard touches. kept is
// indexed by user and may be shorter than the user range (missing
// entries fold); a kept user must exist in prev.
func (m *Model) FoldInUsersFrom(prev *Model, kept []bool, data *cuboid.Cuboid, iters int) (*Model, error) {
	if iters <= 0 {
		return nil, fmt.Errorf("tcam: fold-in iters must be positive, got %d", iters)
	}
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
	var r *train.Reducer
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
			tr = newTrainer(&out, data)
			tr.frozen = true
			r = train.NewReducer(tr, 0)
		}
		for i := 0; i < iters; i++ {
			r.Reduce(lo, hi, 0)
			tr.userStep(lo, hi)
		}
		lo = hi
	}
	return &out, nil
}
