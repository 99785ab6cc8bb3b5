package plsa

import (
	"math/rand"
	"testing"

	"tcam/internal/cuboid"
	"tcam/internal/model"
	"tcam/internal/train"
)

// BenchmarkPLSAIteration times one full EM iteration of each baseline
// as the engine runs it — train.DefaultShards shard resets, the E-step
// scans, the ordered merge, the M-step — at the paper's topic counts on
// a wide catalog: 1 000 users × 12 intervals × 20 000 items, 40 ratings
// a user. A ϕ slab is K×V (9.6 MB for UT, 6.4 MB for TT) and every
// shard clears and merges one per iteration whatever the host, so this
// is where the engine's fixed grouping costs most; cells/s is the
// headline.
func BenchmarkPLSAIteration(b *testing.B) {
	const nu, nt, nv = 1000, 12, 20000
	rng := rand.New(rand.NewSource(7))
	cb := cuboid.NewBuilder(nu, nt, nv)
	for u := 0; u < nu; u++ {
		for r := 0; r < 40; r++ {
			cb.MustAdd(u, rng.Intn(nt), rng.Intn(nv), 1+float64(r%3))
		}
	}
	data := cb.Build()
	for _, bl := range baselines() {
		b.Run(bl.name, func(b *testing.B) {
			tr, err := prepare(data, bl.axis, DefaultConfig(bl.axis))
			if err != nil {
				b.Fatal(err)
			}
			var accums []train.Accum
			model.CutRanges(tr.NumUsers(), train.DefaultShards, func(s, lo, hi int) {
				accums = append(accums, tr.NewAccum(s, lo, hi))
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, a := range accums {
					a.Reset()
				}
				for _, a := range accums {
					tr.EStep(a)
				}
				for j := 1; j < len(accums); j++ {
					accums[0].Merge(accums[j])
				}
				tr.MStep(accums[0])
			}
			b.StopTimer()
			b.ReportMetric(float64(data.NNZ())*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}
