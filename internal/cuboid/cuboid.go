// Package cuboid implements the paper's central data structure, the
// rating cuboid (Definition 3): a sparse N×T×V tensor whose cell
// (u, t, v) stores the rating score user u assigned to item v during time
// interval t. It also provides per-interval postings, aggregate
// statistics and gob serialization.
//
// The cuboid is stored sparsely, CSR-style, in two structure-of-arrays
// views so EM inference touches only nonzero cells — O(nnz·K) per
// iteration rather than O(N·T·V·K):
//
//   - the by-user view: parallel ts/vs/scores arrays in (U, T, V) order
//     with a userPtr row pointer, so a per-user E-step is a linear scan
//     over three contiguous slices with no index indirection;
//   - the by-interval view: parallel us/vs/scores arrays grouped by
//     interval (cells in (T, U, V) order) with a timePtr row pointer,
//     for the item-weighting pass of Section 3.3 and interval-major
//     trainers.
//
// A merged []Cell slice is kept alongside for serialization and callers
// that want whole cells; its order is exactly the by-user view's order,
// so index i means the same cell in both.
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

// CheckScore is the one rule for a rating score, and every door an
// event can enter by applies it: Delta.Add for cells, ingest's
// Record.Validate for events. A score is finite and positive — the
// cuboid of Definition 3 holds positive ratings, and EM's likelihood and
// TA's non-negative score decomposition both assume it — so NaN and ±Inf
// are refused alongside zero and negatives.
func CheckScore(score float64) error {
	if !(score > 0) || math.IsInf(score, 1) {
		return fmt.Errorf("cuboid: score %v is not finite and positive", score)
	}
	return nil
}

// Cuboid is an immutable sparse rating cuboid. Build one with a Builder
// or by applying a Delta; the zero value is the empty 0×0×0 cuboid.
type Cuboid struct {
	numUsers     int
	numIntervals int
	numItems     int

	cells []Cell // sorted by (U, T, V), duplicates merged

	// By-user CSR view: columnar copies of cells (same order), rows cut
	// by userPtr. ts[i], vs[i], scores[i] describe cells[i].
	ts      []int32
	vs      []int32
	scores  []float64
	userPtr []int32 // len numUsers+1

	// By-interval CSR view: cells regrouped by T (within an interval the
	// order is ascending (U, V), i.e. ascending global cell index), rows
	// cut by timePtr.
	tUs     []int32
	tVs     []int32
	tScores []float64
	timePtr []int32 // len numIntervals+1
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
// Cuboid, building both CSR views with a count-then-fill pass: one scan
// counts row sizes, a prefix sum turns them into row pointers, and one
// more scan writes every column entry into its final slot. No slice is
// ever grown by append, so construction costs O(1) allocations of exact
// size instead of O(nnz) small reallocations.
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
		ts:           make([]int32, nnz),
		vs:           make([]int32, nnz),
		scores:       make([]float64, nnz),
		userPtr:      make([]int32, numUsers+1),
		tUs:          make([]int32, nnz),
		tVs:          make([]int32, nnz),
		tScores:      make([]float64, nnz),
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
	for i := range cells {
		cell := &cells[i]
		c.ts[i], c.vs[i], c.scores[i] = cell.T, cell.V, cell.Score
		p := next[cell.T]
		next[cell.T] = p + 1
		c.tUs[p], c.tVs[p], c.tScores[p] = cell.U, cell.V, cell.Score
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

// Cells returns the merged cell slice sorted by (U, T, V). Callers must
// not modify it. Index i here addresses the same cell as index i of the
// CSR view.
func (c *Cuboid) Cells() []Cell { return c.cells }

// CSR returns the by-user structure-of-arrays view: parallel interval,
// item and score columns in Cells() order. Row i of the three slices
// describes Cells()[i]; user u's rows are the contiguous range returned
// by UserSpan. Callers must not modify the slices.
//
//tcam:hotpath
func (c *Cuboid) CSR() (ts, vs []int32, scores []float64) {
	return c.ts, c.vs, c.scores
}

// UserSpan returns the half-open range [lo, hi) of user u's cells in the
// CSR view (equivalently in Cells()), in (T, V) order.
//
//tcam:hotpath
func (c *Cuboid) UserSpan(u int) (lo, hi int) {
	return int(c.userPtr[u]), int(c.userPtr[u+1])
}

// IntervalCSR returns the by-interval structure-of-arrays view: parallel
// user, item and score columns grouped by interval. Interval t's rows
// are the contiguous range returned by IntervalSpan, in ascending (U, V)
// order. Callers must not modify the slices.
//
//tcam:hotpath
func (c *Cuboid) IntervalCSR() (us, vs []int32, scores []float64) {
	return c.tUs, c.tVs, c.tScores
}

// IntervalSpan returns the half-open range [lo, hi) of interval t's
// cells in the IntervalCSR view.
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
