package cuboid

// Stats summarizes a cuboid for dataset reporting (Table 2 of the paper)
// and for the item-weighting scheme (Section 3.3).
type Stats struct {
	NumUsers     int
	NumIntervals int
	NumItems     int
	NNZ          int
	TotalScore   float64

	// ItemUsers[v] is N(v): the number of distinct users who rated item
	// v across all intervals.
	ItemUsers []int
	// IntervalUsers[t] is Nt: the number of distinct active users during
	// interval t.
	IntervalUsers []int
	// RatedUsers is the number of users with at least one rating.
	RatedUsers int
	// RatedItems is the number of items with at least one rating.
	RatedItems int
}

// ComputeStats scans the cuboid once (plus per-user postings) and returns
// its aggregate statistics.
func ComputeStats(c *Cuboid) *Stats {
	s := &Stats{
		NumUsers:      c.NumUsers(),
		NumIntervals:  c.NumIntervals(),
		NumItems:      c.NumItems(),
		NNZ:           c.NNZ(),
		ItemUsers:     make([]int, c.NumItems()),
		IntervalUsers: make([]int, c.NumIntervals()),
	}
	itemSeen := make([]int32, c.NumItems()) // last user who touched item, +1
	cells := c.Cells()
	for u := 0; u < c.NumUsers(); u++ {
		lo, hi := c.UserSpan(u)
		if hi > lo {
			s.RatedUsers++
		}
		lastT := int32(-1)
		for _, cell := range cells[lo:hi] {
			s.TotalScore += cell.Score
			if itemSeen[cell.V] != int32(u)+1 {
				itemSeen[cell.V] = int32(u) + 1
				s.ItemUsers[cell.V]++
			}
			if cell.T != lastT {
				s.IntervalUsers[cell.T]++
				lastT = cell.T
			}
		}
	}
	for _, n := range s.ItemUsers {
		if n > 0 {
			s.RatedItems++
		}
	}
	return s
}

// ItemIntervalUsers returns Nt(v) for every (t, v): the number of
// distinct users who rated item v during interval t, as a slice of
// per-interval maps keyed by item. Only nonzero entries are present.
func ItemIntervalUsers(c *Cuboid) []map[int32]int {
	out := make([]map[int32]int, c.NumIntervals())
	// Cells are deduplicated per (u, t, v), so each cell contributes
	// exactly one distinct user to its (t, v) pair. The by-interval
	// order hands each interval its cells as one contiguous span.
	cells := c.IntervalCells()
	for t := range out {
		lo, hi := c.IntervalSpan(t)
		m := make(map[int32]int, hi-lo)
		for _, cell := range cells[lo:hi] {
			m[cell.V]++
		}
		out[t] = m
	}
	return out
}

// ItemFrequencySeries returns, for item v, the per-interval count of
// distinct users who rated it — the raw series behind the paper's
// Figures 2 and 5 (temporal frequency curves).
func ItemFrequencySeries(c *Cuboid, v int) []float64 {
	series := make([]float64, c.NumIntervals())
	for _, cell := range c.Cells() {
		if int(cell.V) == v {
			series[cell.T]++
		}
	}
	return series
}

// NormalizeSeries rescales a series so its maximum is one, as the paper's
// figures plot "normalized frequency". A zero series is returned as-is.
func NormalizeSeries(series []float64) []float64 {
	var max float64
	for _, x := range series {
		if x > max {
			max = x
		}
	}
	out := make([]float64, len(series))
	if max <= 0 {
		return out
	}
	for i, x := range series {
		out[i] = x / max
	}
	return out
}
