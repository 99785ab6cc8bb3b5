// Package cuboid implements the paper's central data structure, the
// rating cuboid (Definition 3): a sparse N×T×V tensor whose cell
// (u, t, v) stores the rating score user u assigned to item v during time
// interval t. It also provides per-interval postings, aggregate
// statistics and gob serialization.
//
// The cuboid is stored sparsely, CSR-style, as one []Cell in two orders
// so EM inference touches only nonzero cells — O(nnz·K) per iteration
// rather than O(N·T·V·K):
//
//   - by user: the cells in (U, T, V) order, rows cut by a userPtr row
//     pointer, so a per-user E-step is a linear scan of one contiguous
//     span;
//   - by interval: the same cells regrouped by T (each interval's in
//     (U, V) order), rows cut by a timePtr row pointer, for the
//     item-weighting pass of Section 3.3 and interval-major trainers.
package cuboid

import (
	"fmt"
	"math"
)

// Cell is one nonzero entry of the rating cuboid: user U rated item V
// with score Score during time interval T. Indices are dense and
// zero-based.
type Cell struct {
	U, T, V int32
	Score   float64
}

// MaxScore is the largest score CheckScore admits, 2^512. A cuboid has
// fewer than 2^31 cells (its row pointers are int32) and a weighting
// factor is below 2^36, so every sum of scores or of weighted scores
// stays below 2^579, and EM's log-likelihood — each cell's mass times a
// log density of magnitude below 2^10 — below 2^589: far inside
// float64's 2^1024 (DESIGN.md §11).
const MaxScore = 0x1p512

// CheckScore is the one rule for a rating score, and every door an
// event can enter by applies it: Delta.Add for cells, Read for a
// serialized cuboid, ingest's Record.Validate for events. A score is
// positive — the cuboid of Definition 3 holds positive ratings, and EM's
// likelihood and TA's non-negative score decomposition both assume it —
// and at most MaxScore, so NaN and ±Inf are refused alongside zero,
// negatives and finite scores whose sums would overflow.
func CheckScore(score float64) error {
	if !(score > 0 && score <= MaxScore) {
		return fmt.Errorf("cuboid: score %v is not in (0, %v]", score, MaxScore)
	}
	return nil
}

// Cuboid is an immutable sparse rating cuboid. Build one with a Builder
// or by applying a Delta; the zero value is the empty 0×0×0 cuboid.
type Cuboid struct {
	numUsers     int
	numIntervals int
	numItems     int

	cells   []Cell  // sorted by (U, T, V), duplicates merged
	userPtr []int32 // len numUsers+1: user u's cells are cells[userPtr[u]:userPtr[u+1]]

	// The same cells regrouped by T; within an interval they keep their
	// (U, V) order, i.e. ascending index in cells.
	byInterval []Cell
	timePtr    []int32 // len numIntervals+1
}

// Builder accumulates ratings and produces a Cuboid: a Delta applied to
// no cells. Add validates exactly as Delta.Add does, and duplicate
// (u, t, v) triples merge by summing their scores in arrival order,
// matching the paper's use of usage frequency as the rating score.
type Builder struct{ Delta }

// NewBuilder returns a Builder for a cuboid with the given fixed
// dimensions. All of Add's indices must stay below these bounds.
func NewBuilder(numUsers, numIntervals, numItems int) *Builder {
	return &Builder{*NewDelta(numUsers, numIntervals, numItems)}
}

// Build sorts, merges and freezes the accumulated ratings into a Cuboid.
// It works on a copy of them: the Builder can be reused afterwards and
// the built Cuboid is independent.
func (b *Builder) Build() *Cuboid {
	d := b.Delta
	d.cells = append([]Cell(nil), b.cells...)
	d.freeze()
	return fromCells(d.numUsers, d.numIntervals, d.numItems, mergeCells(nil, d.cells))
}

// fromCells freezes a (U, T, V)-sorted, deduplicated cell slice into a
// Cuboid, regrouping it by interval with a count-then-fill pass: one
// scan counts row sizes, a prefix sum turns them into row pointers, and
// one more scan copies every cell into its interval's next slot. No
// slice is ever grown by append, so construction costs O(1) allocations
// of exact size instead of O(nnz) small reallocations.
func fromCells(numUsers, numIntervals, numItems int, cells []Cell) *Cuboid {
	nnz := len(cells)
	if nnz > math.MaxInt32 {
		panic(fmt.Sprintf("cuboid: %d cells overflow the int32 CSR row pointers", nnz))
	}
	c := &Cuboid{
		numUsers:     numUsers,
		numIntervals: numIntervals,
		numItems:     numItems,
		cells:        cells,
		userPtr:      make([]int32, numUsers+1),
		byInterval:   make([]Cell, nnz),
		timePtr:      make([]int32, numIntervals+1),
	}
	for i := range cells {
		c.userPtr[cells[i].U+1]++
		c.timePtr[cells[i].T+1]++
	}
	for u := 0; u < numUsers; u++ {
		c.userPtr[u+1] += c.userPtr[u]
	}
	for t := 0; t < numIntervals; t++ {
		c.timePtr[t+1] += c.timePtr[t]
	}
	next := make([]int32, numIntervals)
	copy(next, c.timePtr[:numIntervals])
	for _, cell := range cells {
		c.byInterval[next[cell.T]] = cell
		next[cell.T]++
	}
	return c
}

// NumUsers returns N, the user-dimension size.
func (c *Cuboid) NumUsers() int { return c.numUsers }

// NumIntervals returns T, the time-dimension size.
func (c *Cuboid) NumIntervals() int { return c.numIntervals }

// NumItems returns V, the item-dimension size.
func (c *Cuboid) NumItems() int { return c.numItems }

// NNZ returns the number of nonzero cells.
func (c *Cuboid) NNZ() int { return len(c.cells) }

// Cells returns the merged cells sorted by (U, T, V): the by-user
// order, user u's cells the span UserSpan(u). Callers must not modify
// it.
//
//tcam:hotpath
func (c *Cuboid) Cells() []Cell { return c.cells }

// UserSpan returns the half-open range [lo, hi) of user u's cells in
// Cells(), in (T, V) order.
//
//tcam:hotpath
func (c *Cuboid) UserSpan(u int) (lo, hi int) {
	return int(c.userPtr[u]), int(c.userPtr[u+1])
}

// IntervalCells returns the same cells grouped by interval: interval
// t's cells are the span IntervalSpan(t), in (U, V) order. Callers must
// not modify it.
//
//tcam:hotpath
func (c *Cuboid) IntervalCells() []Cell { return c.byInterval }

// IntervalSpan returns the half-open range [lo, hi) of interval t's
// cells in IntervalCells().
//
//tcam:hotpath
func (c *Cuboid) IntervalSpan(t int) (lo, hi int) {
	return int(c.timePtr[t]), int(c.timePtr[t+1])
}

// Scaled returns a copy of the cuboid whose cell (u,t,v) carries
// Score·weight(u,t,v). Weights must be positive; non-positive weights
// drop the cell. This implements Equation (20)'s weighted cuboid C̄.
func (c *Cuboid) Scaled(weight func(cell Cell) float64) *Cuboid {
	out := make([]Cell, 0, len(c.cells))
	for _, cell := range c.cells {
		w := weight(cell)
		if w <= 0 {
			continue
		}
		cell.Score *= w
		out = append(out, cell)
	}
	return fromCells(c.numUsers, c.numIntervals, c.numItems, out)
}

// Subset returns a cuboid containing only the cells for which keep
// returns true; keep is given each cell and its index in Cells().
// Dimensions are preserved.
func (c *Cuboid) Subset(keep func(i int, cell Cell) bool) *Cuboid {
	out := make([]Cell, 0, len(c.cells))
	for i, cell := range c.cells {
		if keep(i, cell) {
			out = append(out, cell)
		}
	}
	return fromCells(c.numUsers, c.numIntervals, c.numItems, out)
}
