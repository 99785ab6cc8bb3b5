package topk

// Serving benchmarks: the TA fast path must show 0 allocs/op at steady
// state and BuildIndex must scale with cores. scripts/bench.sh query
// snapshots these (plus the httptest server benches, the batch path
// among them) into BENCH_query.json.

import (
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
// intervals — 40 topic lists and 30 collapsed context lists. The
// scorer's item-major table is laid out once, as a model's is when it
// is loaded, and borrowed by every build.
func BenchmarkBuildIndex(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	c := &contextModel{fakeTopicModel: randomModel(rng, 64, 20000), lo: 40, hi: 64}
	for t := 0; t < 30; t++ {
		c.omega = append(c.omega, randomQuery(rng, 24, false))
	}
	c.table = c.ItemTopics()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildIndex(c)
	}
}

// deepWorld has BenchmarkBuildIndex's shape — 40 user topics and 24
// context topics over 20 000 items, 30 intervals — with skewedModel's
// Zipf-like topic weights (uniform ones make TA a full scan, about
// 30 000 pops at k = 50), and 16 users, each with a γ of its own: half
// with no history (a flat θu), half trained (θu on three topics).
func deepWorld() *contextModel {
	rng := rand.New(rand.NewSource(7))
	c := &contextModel{fakeTopicModel: skewedModel(rng, 64, 20000), lo: 40, hi: 64}
	for t := 0; t < 30; t++ {
		c.omega = append(c.omega, randomQuery(rng, 24, false))
	}
	for u := 0; u < 16; u++ {
		gamma := rng.Float64()
		row := make([]float64, 64)
		if u%2 == 0 { // no history: a flat θu, which walks the floor list
			for z := range row[:40] {
				row[z] = (1 - gamma) / 40
			}
		} else { // a trained user: θu on three topics
			for _, z := range rng.Perm(40)[:3] {
				row[z] = (1 - gamma) / 3
			}
		}
		c.user = append(c.user, row)
		c.gamma = append(c.gamma, gamma)
	}
	return c
}

// BenchmarkTAQueryDeep is the repo benchmark's serve_cold query shape:
// k = 50 over deepWorld, each iteration the next of its 16 users at the
// next of its 30 intervals, so every query walks the floor list, the
// user topics' residual lists and a collapsed context list.
func BenchmarkTAQueryDeep(b *testing.B) {
	c := deepWorld()
	s := BuildIndex(c).AcquireSearcher()
	defer s.Release()
	var pops, examined int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st := s.Query(c, i%16, i%30, 50, nil)
		pops += st.ListPops
		examined += st.ItemsExamined
	}
	b.ReportMetric(float64(pops)/float64(b.N), "pops/op")
	b.ReportMetric(float64(examined)/float64(b.N), "examined/op")
}
