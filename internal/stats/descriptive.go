package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ECDF is an empirical cumulative distribution function over a fixed
// sample, supporting both evaluation and tabulation.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from a sample. The input is copied.
func NewECDF(sample []float64) *ECDF {
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns P(X ≤ x) under the empirical distribution.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	n := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(n) / float64(len(e.sorted))
}

// Table evaluates the ECDF on a uniform grid of points spanning [lo, hi]
// and returns (xs, ys), the series form used by the figure drivers.
func (e *ECDF) Table(lo, hi float64, points int) (xs, ys []float64) {
	if points < 2 {
		points = 2
	}
	xs = make([]float64, points)
	ys = make([]float64, points)
	step := (hi - lo) / float64(points-1)
	for i := range xs {
		xs[i] = lo + float64(i)*step
		ys[i] = e.At(xs[i])
	}
	return xs, ys
}
