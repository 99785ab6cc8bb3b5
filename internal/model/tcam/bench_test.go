package tcam

import (
	"math/rand"
	"testing"

	"tcam/internal/cuboid"
	"tcam/internal/train"
)

// benchCuboid builds the deterministic training cuboid behind the EM
// benchmarks: 2 000 users × 12 intervals × 2 000 items with ~40 ratings
// per user (≈78k nonzero cells after merging), sized so the φ/φ' slabs
// dwarf L2 and the benchmark actually exercises the memory layout.
func benchCuboid(tb testing.TB) *cuboid.Cuboid {
	tb.Helper()
	const nu, nt, nv = 2000, 12, 2000
	rng := rand.New(rand.NewSource(7))
	b := cuboid.NewBuilder(nu, nt, nv)
	for u := 0; u < nu; u++ {
		for r := 0; r < 40; r++ {
			b.MustAdd(u, rng.Intn(nt), rng.Intn(nv), 1+float64(r%3))
		}
	}
	return b.Build()
}

// benchIteration times full EM iterations as the engine runs them —
// the reducer's shard resets, E-step scans and ordered merge over
// train.DefaultShards user shards on the given workers (non-positive
// means GOMAXPROCS), then the M-step — for one variant at K1=40, K2=32.
// The headline metric is cells/s (nonzero cuboid cells processed per
// second).
func benchIteration(b *testing.B, v variant, workers int) {
	data := benchCuboid(b)
	tr, err := prepare(data, v.config(40, 32))
	if err != nil {
		b.Fatal(err)
	}
	r := train.NewReducer(tr, workers)
	n := tr.NumUsers()
	r.Reduce(0, n, 0) // allocates the reducer's accumulators, once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.MStep(r.Reduce(0, n, 0))
	}
	b.StopTimer()
	b.ReportMetric(float64(data.NNZ())*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkEMIteration measures one serial EM iteration per variant.
// Steady state must be allocation-free (scripts/bench_smoke.sh).
func BenchmarkEMIteration(b *testing.B) {
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) { benchIteration(b, v, 1) })
	}
}

// BenchmarkEMIterationParallel is BenchmarkEMIteration with the E-step
// shards fanned across GOMAXPROCS workers, exactly as the training
// engine runs them. Run with -cpu 1,2,4,8 for the scaling curve
// recorded in BENCH_train.json; each merge waits for the shards before
// it and the M-step stays serial, so the curve exposes the Amdahl
// ceiling of the current split.
func BenchmarkEMIterationParallel(b *testing.B) {
	for _, v := range variants[:2] {
		// Workers are read inside: each -cpu setting re-runs this func.
		b.Run(v.name, func(b *testing.B) { benchIteration(b, v, 0) })
	}
}
