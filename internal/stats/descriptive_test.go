package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		mean float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"pair", []float64{2, 4}, 3},
		{"spread", []float64{1, 2, 3, 4, 5}, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); math.Abs(got-tt.mean) > 1e-12 {
				t.Errorf("Mean = %v, want %v", got, tt.mean)
			}
		})
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	tests := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {9, 1},
	}
	for _, tt := range tests {
		if got := e.At(tt.x); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("ECDF.At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	xs, ys := e.Table(0, 4, 5)
	if len(xs) != 5 || len(ys) != 5 {
		t.Fatalf("Table lengths = %d,%d", len(xs), len(ys))
	}
	if ys[0] != 0 || ys[4] != 1 {
		t.Errorf("Table endpoints = %v..%v, want 0..1", ys[0], ys[4])
	}
}

// Property: an ECDF is monotone non-decreasing and bounded in [0,1].
func TestECDFMonotoneProperty(t *testing.T) {
	f := func(sample []float64, probes []float64) bool {
		clean := make([]float64, 0, len(sample))
		for _, x := range sample {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		e := NewECDF(clean)
		prev := -1.0
		xs := append([]float64(nil), probes...)
		for i := range xs {
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
				xs[i] = 0
			}
		}
		sortFloats(xs)
		for _, x := range xs {
			y := e.At(x)
			if y < prev-1e-12 || y < 0 || y > 1 {
				return false
			}
			prev = y
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
