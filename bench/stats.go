package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted; a sample shorter than 100/(100-p) yields its maximum.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// quartiles returns the first quartile, median and third quartile of xs
// (linear interpolation, the "exclusive" method Python's
// statistics.quantiles(n=4) uses, so spreads printed here match the
// driver's).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(q float64) float64 {
		pos := q*float64(len(s)+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		lo := int(pos)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// median is the middle quartile alone.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// summary is one reported statistic: the median over time slices of a
// per-slice statistic, the slices' quartiles as spread, and how many
// raw samples fed it.
type summary struct {
	Value   float64 `json:"value"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	Samples int     `json:"samples"`
}

// sliceMedian computes stat on every non-empty slice and summarises the
// per-slice values by their median. Reporting the median of slices, not
// one statistic over the whole window, keeps a noisy-neighbour burst
// that lands in one slice out of the headline.
func sliceMedian(slices [][]float64, stat func(sorted []float64) float64) summary {
	var per []float64
	n := 0
	for _, s := range slices {
		if len(s) == 0 {
			continue
		}
		sorted := append([]float64(nil), s...)
		sort.Float64s(sorted)
		per = append(per, stat(sorted))
		n += len(s)
	}
	q1, med, q3 := quartiles(per)
	return summary{Value: med, Q1: q1, Q3: q3, Samples: n}
}

// sliceStats computes stat on every slice; an empty slice yields 0.
func sliceStats(slices [][]float64, stat func(sorted []float64) float64) []float64 {
	out := make([]float64, len(slices))
	for i, s := range slices {
		if len(s) > 0 {
			sorted := append([]float64(nil), s...)
			sort.Float64s(sorted)
			out[i] = stat(sorted)
		}
	}
	return out
}

// normalised expresses a per-slice figure of the system under test
// relative to the reference's figure for the neighbouring slice, on the
// scale the reference's nominal figure fixes: sut × nominal ÷ ref per
// pair, and the median over pairs. A spell of slow host that covers part
// of the window moves both members of a pair and so leaves the pair's
// ratio alone. Pairs in which either side measured nothing are left out.
func normalised(sut, ref []float64, nominal float64, samples int) summary {
	var per []float64
	for i := range sut {
		if i < len(ref) && sut[i] > 0 && ref[i] > 0 {
			per = append(per, sut[i]*nominal/ref[i])
		}
	}
	q1, med, q3 := quartiles(per)
	return summary{Value: med, Q1: q1, Q3: q3, Samples: samples}
}

// spreadShare is the interquartile distance as a share of the median —
// the repeatability figure the benchmark contract bounds.
func spreadShare(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}
