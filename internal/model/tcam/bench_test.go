package tcam

import (
	"math/rand"
	"testing"

	"tcam/internal/cuboid"
	"tcam/internal/model"
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

// benchAccums cuts the user range into train.DefaultShards contiguous
// shards exactly as the engine does, so benchmarked iterations use the
// production summation grouping.
func benchAccums(tb testing.TB, tr *trainer) []train.Accum {
	tb.Helper()
	var accums []train.Accum
	model.CutRanges(tr.NumUsers(), train.DefaultShards, func(s, lo, hi int) {
		accums = append(accums, tr.NewAccum(s, lo, hi))
	})
	return accums
}

// benchIteration times full EM iterations — shard resets, E-step scans
// (through eStep, so the parallel benchmark can fan them out), the
// ordered accumulator merge and the M-step — for one variant at K1=40,
// K2=32. The headline metric is cells/s (nonzero cuboid cells processed
// per second).
func benchIteration(b *testing.B, v variant, eStep func(tr *trainer, accums []train.Accum)) {
	data := benchCuboid(b)
	tr, err := prepare(data, v.config(40, 32))
	if err != nil {
		b.Fatal(err)
	}
	accums := benchAccums(b, tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range accums {
			a.Reset()
		}
		eStep(tr, accums)
		for j := 1; j < len(accums); j++ {
			accums[0].Merge(accums[j])
		}
		tr.MStep(accums[0])
	}
	b.StopTimer()
	b.ReportMetric(float64(data.NNZ())*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkEMIteration measures one serial EM iteration per variant.
// Steady state must be allocation-free (scripts/bench_smoke.sh).
func BenchmarkEMIteration(b *testing.B) {
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			benchIteration(b, v, func(tr *trainer, accums []train.Accum) {
				for _, a := range accums {
					tr.EStep(a)
				}
			})
		})
	}
}

// BenchmarkEMIterationParallel is BenchmarkEMIteration with the E-step
// shards fanned across GOMAXPROCS workers, exactly as the training
// engine's shard runner does. Run with -cpu 1,2,4,8 for the scaling
// curve recorded in BENCH_train.json; the merge and M-step stay serial,
// so the curve exposes the Amdahl ceiling of the current split.
func BenchmarkEMIterationParallel(b *testing.B) {
	for _, v := range variants[:2] {
		b.Run(v.name, func(b *testing.B) {
			workers := model.Workers(0) // read here: each -cpu setting re-runs this func
			benchIteration(b, v, func(tr *trainer, accums []train.Accum) {
				model.ParallelRanges(len(accums), workers, func(_, lo, hi int) {
					for s := lo; s < hi; s++ {
						tr.EStep(accums[s])
					}
				})
			})
		})
	}
}
