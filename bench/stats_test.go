package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), the
// rule the driver applies to the ten runs of a metric.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if !near(q1, 2.75) || !near(med, 5.5) || !near(q3, 8.25) {
		t.Errorf("ten values: %v %v %v", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{5, 4, 3, 2, 1})
	if !near(q1, 1.5) || !near(med, 3) || !near(q3, 4.5) {
		t.Errorf("five values: %v %v %v", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{7})
	if q1 != 7 || med != 7 || q3 != 7 {
		t.Errorf("one value: %v %v %v", q1, med, q3)
	}
	if got := spreadShare(2.75, 5.5, 8.25); !near(got, 1) {
		t.Errorf("spreadShare = %v", got)
	}
}

// One slice ruined by a burst must not move the headline.
func TestSliceMedianIgnoresOneBadSlice(t *testing.T) {
	slices := [][]float64{{100, 101, 102}, {100, 102, 104}, {9000, 9500, 9900}, nil, {99, 100, 103}}
	got := sliceMedian(slices, func(s []float64) float64 { return percentile(s, 99) })
	if got.Value != 103.5 || got.Samples != 12 {
		t.Errorf("sliceMedian = %+v", got)
	}
}

// A slow spell that covers some pairs moves both sides of those pairs,
// so the normalised figure does not move; a pair in which one side
// measured nothing is left out.
func TestNormalisedCancelsAHostStep(t *testing.T) {
	sut := []float64{200, 200, 320, 320, 0}
	ref := []float64{100, 100, 160, 160, 100}
	got := normalised(sut, ref, 120, 7)
	if !near(got.Value, 240) || !near(got.Q1, 240) || !near(got.Q3, 240) || got.Samples != 7 {
		t.Errorf("normalised = %+v", got)
	}
	if got := normalised([]float64{5}, []float64{0}, 1, 0); got.Value != 0 {
		t.Errorf("a pair without a reference gave %+v", got)
	}
}

func TestSliceStatsKeepsEmptySlices(t *testing.T) {
	got := sliceStats([][]float64{{3, 1, 2}, nil, {9}}, func(s []float64) float64 { return percentile(s, 50) })
	if len(got) != 3 || got[0] != 2 || got[1] != 0 || got[2] != 9 {
		t.Errorf("sliceStats = %v", got)
	}
}

func TestSliceOf(t *testing.T) {
	w := 10 * time.Second
	for _, c := range []struct {
		off  time.Duration
		want int
	}{{0, 0}, {999 * time.Millisecond, 0}, {time.Second, 1}, {9999 * time.Millisecond, 9}, {11 * time.Second, 9}} {
		if got := sliceOf(c.off, w); got != c.want {
			t.Errorf("sliceOf(%v) = %d, want %d", c.off, got, c.want)
		}
	}
}
