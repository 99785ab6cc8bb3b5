package topk

// Serving benchmarks (ISSUE 1): the TA fast path must show 0 allocs/op
// at steady state, BuildIndex must scale with cores, and the batch path
// amortizes fan-out. scripts/bench.sh query snapshots these (plus the
// httptest server benches) into BENCH_query.json.

import (
	"context"
	"math/rand"
	"testing"
)

// skewedModel builds a topic model whose item weights decay like
// 1/rank (a fresh random ranking per topic) — the Zipf-like regime
// trained topic models live in and the one TA's early termination
// exploits. Uniform weights would degenerate TA into a full scan and
// benchmark the wrong thing.
func skewedModel(rng *rand.Rand, k, v int) *fakeTopicModel {
	f := &fakeTopicModel{queries: map[[2]int][]float64{}}
	harmonic := 0.0
	for r := 1; r <= v; r++ {
		harmonic += 1 / float64(r)
	}
	for z := 0; z < k; z++ {
		row := make([]float64, v)
		for r, item := range rng.Perm(v) {
			row[item] = 1 / (float64(r+1) * harmonic)
		}
		f.topics = append(f.topics, row)
	}
	return f
}

// benchSetup builds a mid-sized skewed topic model with one
// pre-materialized query-weight vector for query (0, 0) (so the
// benchmark isolates the TA core from model-side ϑq materialization)
// and its index.
func benchSetup(b *testing.B, topics, items int) (*fakeTopicModel, *Index) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	f := skewedModel(rng, topics, items)
	f.queries[[2]int{0, 0}] = randomQuery(rng, topics, false)
	return f, BuildIndex(f)
}

func BenchmarkTAQuery(b *testing.B) {
	f, ix := benchSetup(b, 32, 8192)
	s := ix.AcquireSearcher()
	defer s.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Query(f, 0, 0, 10, nil)
	}
}

// BenchmarkTAQueryFlat is BenchmarkTAQuery for a user with no history:
// benchSetup's topics, every one of them a user topic, under a uniform
// query — every residual +0, so TA walks the floor list alone.
func BenchmarkTAQueryFlat(b *testing.B) {
	f, _ := benchSetup(b, 32, 8192)
	flat := make([]float64, 32)
	for z := range flat {
		flat[z] = 1.0 / 32
	}
	c := allUserTopics(f, flat)
	s := BuildIndex(c).AcquireSearcher()
	defer s.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Query(c, 0, 0, 10, nil)
	}
}

func BenchmarkTAQueryParallel(b *testing.B) {
	f, ix := benchSetup(b, 32, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		s := ix.AcquireSearcher()
		defer s.Release()
		for pb.Next() {
			s.Query(f, 0, 0, 10, nil)
		}
	})
}

// BenchmarkBuildIndex builds the index of the repo benchmark's serve
// world: 40 user topics and 24 context topics over 20 000 items, 30
// intervals — 40 topic lists and 30 collapsed context lists.
func BenchmarkBuildIndex(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	c := &contextModel{fakeTopicModel: randomModel(rng, 64, 20000), lo: 40, hi: 64}
	for t := 0; t < 30; t++ {
		c.omega = append(c.omega, randomQuery(rng, 24, false))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildIndex(c)
	}
}

func BenchmarkQueryBatch(b *testing.B) {
	f, ix := benchSetup(b, 32, 8192)
	qs := make([]BatchQuery, 64)
	for i := range qs {
		qs[i] = BatchQuery{U: 0, T: 0, K: 10}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.QueryBatch(context.Background(), f, qs, 0)
	}
}
