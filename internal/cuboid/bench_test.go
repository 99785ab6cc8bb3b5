package cuboid

import (
	"math/rand"
	"testing"
)

// benchRatings returns a deterministic shuffled rating stream with
// duplicates, the worst case for Build's sort-and-merge pass.
func benchRatings(tb testing.TB) ([][3]int, int, int, int) {
	tb.Helper()
	const nu, nt, nv = 2000, 12, 2000
	rng := rand.New(rand.NewSource(7))
	ratings := make([][3]int, 0, 80000)
	for u := 0; u < nu; u++ {
		for r := 0; r < 40; r++ {
			ratings = append(ratings, [3]int{u, rng.Intn(nt), rng.Intn(nv)})
		}
	}
	rng.Shuffle(len(ratings), func(i, j int) { ratings[i], ratings[j] = ratings[j], ratings[i] })
	return ratings, nu, nt, nv
}

// BenchmarkCuboidBuild measures Builder.Build — sort, merge and the
// by-interval regrouping — on an 80k-rating stream.
func BenchmarkCuboidBuild(b *testing.B) {
	ratings, nu, nt, nv := benchRatings(b)
	bld := NewBuilder(nu, nt, nv)
	for _, r := range ratings {
		bld.MustAdd(r[0], r[1], r[2], 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var c *Cuboid
	for i := 0; i < b.N; i++ {
		c = bld.Build()
	}
	b.StopTimer()
	b.ReportMetric(float64(c.NNZ())*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkScaled measures the weighted-cuboid rebuild of Equation (20):
// one pass applying a per-cell weight plus the index reconstruction.
func BenchmarkScaled(b *testing.B) {
	ratings, nu, nt, nv := benchRatings(b)
	bld := NewBuilder(nu, nt, nv)
	for _, r := range ratings {
		bld.MustAdd(r[0], r[1], r[2], 1)
	}
	c := bld.Build()
	b.ReportAllocs()
	b.ResetTimer()
	var out *Cuboid
	for i := 0; i < b.N; i++ {
		out = c.Scaled(func(cell Cell) float64 { return 0.5 + float64(cell.V%3) })
	}
	b.StopTimer()
	b.ReportMetric(float64(out.NNZ())*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkSubset measures the filtering rebuild used by the evaluation
// splits.
func BenchmarkSubset(b *testing.B) {
	ratings, nu, nt, nv := benchRatings(b)
	bld := NewBuilder(nu, nt, nv)
	for _, r := range ratings {
		bld.MustAdd(r[0], r[1], r[2], 1)
	}
	c := bld.Build()
	b.ReportAllocs()
	b.ResetTimer()
	var out *Cuboid
	for i := 0; i < b.N; i++ {
		out = c.Subset(func(_ int, cell Cell) bool { return cell.T%2 == 0 })
	}
	b.StopTimer()
	b.ReportMetric(float64(out.NNZ())*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}
