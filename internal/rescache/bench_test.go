package rescache

import "testing"

// BenchmarkCacheHit is the contract benchmark for the serving tier:
// a lookup that hits must be allocation-free (bench_smoke.sh gates
// 0 allocs/op on it) and orders of magnitude cheaper than the ~32µs
// TA search it short-circuits.
func BenchmarkCacheHit(b *testing.B) {
	c := New[[]int](1 << 10)
	k := Key{User: 42, Time: 7, K: 10}
	c.Put(3, k, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, ok := c.Get(3, k)
		if !ok || len(v) != 10 {
			b.Fatal("unexpected miss")
		}
	}
}

func BenchmarkCacheMiss(b *testing.B) {
	c := New[[]int](1 << 10)
	k := Key{User: 42, Time: 7, K: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(3, k); ok {
			b.Fatal("unexpected hit")
		}
	}
}

func BenchmarkCachePut(b *testing.B) {
	c := New[[]int](1 << 10)
	val := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(1, Key{User: uint64(i & 4095)}, val)
	}
}

func BenchmarkHotObserve(b *testing.B) {
	tr := NewHotTracker(1 << 14)
	const h = 42
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Observe(h)
	}
}
