package plsa

import (
	"math/rand"
	"testing"

	"tcam/internal/cuboid"
	"tcam/internal/train"
)

// BenchmarkPLSAIteration times one full EM iteration of each baseline
// as the engine runs it on one worker — the reducer's
// train.DefaultShards shard resets, E-step scans and ordered merge,
// then the M-step — at the paper's topic counts on a wide catalog: 1 000
// users × 12 intervals × 20 000 items, 40 ratings a user. A ϕ slab is
// K×V (9.6 MB for UT, 6.4 MB for TT) and every shard after the first
// clears and merges one per iteration whatever the host, so this is
// where the engine's fixed grouping costs most; cells/s is the
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
			r := train.NewReducer(tr, 1)
			n := tr.NumUsers()
			r.Reduce(0, n, 0) // allocates the reducer's accumulators, once
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.MStep(r.Reduce(0, n, 0))
			}
			b.StopTimer()
			b.ReportMetric(float64(data.NNZ())*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}
