package cuboid

// The one cell accumulator. A Delta collects cells and sorts them stably
// by (U, T, V); merging sums duplicates in arrival order; applied to a
// cuboid it extends it (possibly widening the user/interval/item
// dimensions) without re-sorting the cells already there — the
// streaming ingest loop — and applied to no cells it is Builder.Build.
// ApplyDelta reduces to one two-way merge of already-sorted cell slices
// — count first, then fill into exact-size allocations — whose result
// is the new cuboid's by-user order, so a rebuild stays within
// fromCells' small-constant allocation budget.

import "fmt"

// Delta is a batch of new cells destined for an existing cuboid. Its
// dimensions are those of the cuboid AFTER application, so a delta may
// widen any dimension; it must never shrink one. Duplicate (u, t, v)
// triples — within the delta or against the base cuboid — merge by
// summing scores.
type Delta struct {
	numUsers     int
	numIntervals int
	numItems     int
	cells        []Cell
	frozen       bool
}

// NewDelta returns a Delta targeting the given post-application
// dimensions.
func NewDelta(numUsers, numIntervals, numItems int) *Delta {
	if numUsers < 0 || numIntervals < 0 || numItems < 0 {
		panic("cuboid: negative dimension")
	}
	return &Delta{numUsers: numUsers, numIntervals: numIntervals, numItems: numItems}
}

// Widen raises the delta's target dimensions to at least the given
// ones, for an accumulator that learns them as cells arrive.
func (d *Delta) Widen(numUsers, numIntervals, numItems int) {
	d.numUsers = max(d.numUsers, numUsers)
	d.numIntervals = max(d.numIntervals, numIntervals)
	d.numItems = max(d.numItems, numItems)
}

// Add records a new rating cell. Indices are validated against the
// delta's (post-application) dimensions and the score by CheckScore.
func (d *Delta) Add(u, t, v int, score float64) error {
	if d.frozen {
		return fmt.Errorf("cuboid: delta already applied; build a new one")
	}
	if u < 0 || u >= d.numUsers {
		return fmt.Errorf("cuboid: user %d out of range [0,%d)", u, d.numUsers)
	}
	if t < 0 || t >= d.numIntervals {
		return fmt.Errorf("cuboid: interval %d out of range [0,%d)", t, d.numIntervals)
	}
	if v < 0 || v >= d.numItems {
		return fmt.Errorf("cuboid: item %d out of range [0,%d)", v, d.numItems)
	}
	if err := CheckScore(score); err != nil {
		return err
	}
	d.cells = append(d.cells, Cell{U: int32(u), T: int32(t), V: int32(v), Score: score})
	return nil
}

// MustAdd is Add for already-validated indices; it panics on error.
func (d *Delta) MustAdd(u, t, v int, score float64) {
	if err := d.Add(u, t, v, score); err != nil {
		panic(fmt.Sprintf("cuboid: MustAdd: %v", err))
	}
}

// freeze sorts the delta's cells in place by (U, T, V). The sort is
// stable, so the cells of one key stay adjacent in arrival order.
func (d *Delta) freeze() {
	if !d.frozen {
		sortCellsStable(d.cells)
		d.frozen = true
	}
}

// ApplyDelta returns a new cuboid extended by the delta's cells, with
// the delta's (possibly wider) dimensions. The base cuboid is
// untouched; the delta is frozen (sorted) by the call and must not be
// Added to afterwards. A cell's score is the base's, if it has the
// cell, plus the delta's ratings of it in arrival order.
//
// Cost: one count pass and one fill pass over base.NNZ()+delta cells
// into one exact-size slice, then fromCells' by-interval regrouping —
// six allocations, independent of cell count.
func (c *Cuboid) ApplyDelta(d *Delta) (*Cuboid, error) {
	if d.numUsers < c.numUsers || d.numIntervals < c.numIntervals || d.numItems < c.numItems {
		return nil, fmt.Errorf("cuboid: delta dimensions %d×%d×%d shrink the cuboid's %d×%d×%d",
			d.numUsers, d.numIntervals, d.numItems, c.numUsers, c.numIntervals, c.numItems)
	}
	d.freeze()
	out := mergeCells(c.cells, d.cells)
	return fromCells(d.numUsers, d.numIntervals, d.numItems, out), nil
}

// mergeCells merges a — sorted, one cell per key — and b — sorted stably,
// a key's cells adjacent in arrival order — into a freshly allocated
// sorted slice with one cell per key. Count-then-fill: the first walk
// sizes the union exactly, the second writes each cell into its final
// slot, so the merge costs one allocation regardless of input size.
func mergeCells(a, b []Cell) []Cell {
	n := 0
	for i, j := 0, 0; i < len(a) || j < len(b); n++ {
		_, i, j = nextCell(a, b, i, j)
	}
	out := make([]Cell, n)
	for k, i, j := 0, 0, 0; k < n; k++ {
		out[k], i, j = nextCell(a, b, i, j)
	}
	return out
}

// nextCell takes the smallest key off a[i:] and b[j:] and returns its
// merged cell: a's score, if a has the key, then each of b's added in
// order. The sum of a key is therefore a left fold over its ratings in
// arrival order, however the stream was cut into deltas.
func nextCell(a, b []Cell, i, j int) (Cell, int, int) {
	var c Cell
	if j == len(b) || (i < len(a) && !cellLess(b[j], a[i])) {
		c, i = a[i], i+1
	} else {
		c, j = b[j], j+1
	}
	for ; j < len(b) && sameKey(b[j], c); j++ {
		c.Score += b[j].Score
	}
	return c, i, j
}

// cellLess orders cells by (U, T, V), the canonical cuboid order.
func cellLess(a, b Cell) bool {
	if a.U != b.U {
		return a.U < b.U
	}
	if a.T != b.T {
		return a.T < b.T
	}
	return a.V < b.V
}

func sameKey(a, b Cell) bool { return a.U == b.U && a.T == b.T && a.V == b.V }

// sortCellsStable is an insertion-friendly stable merge sort over
// cells by (U, T, V). Stability is load-bearing: duplicate keys keep
// insertion (stream) order, so their float score sum is grouped
// left-to-right by arrival regardless of how appends were batched.
func sortCellsStable(cells []Cell) {
	if len(cells) < 2 {
		return
	}
	buf := make([]Cell, len(cells))
	copy(buf, cells)
	mergeSortCells(buf, cells)
}

// mergeSortCells sorts src into dst (both initially equal copies),
// alternating roles down the recursion — the classic allocation-free
// top-down merge sort.
func mergeSortCells(src, dst []Cell) {
	if len(src) < 2 {
		return
	}
	mid := len(src) / 2
	mergeSortCells(dst[:mid], src[:mid])
	mergeSortCells(dst[mid:], src[mid:])
	i, j := 0, mid
	for k := range dst {
		if i < mid && (j == len(src) || !cellLess(src[j], src[i])) {
			dst[k] = src[i]
			i++
		} else {
			dst[k] = src[j]
			j++
		}
	}
}
