package server

// Cache-path benchmarks (DESIGN.md §16): a repeated single query on the
// hit path, Zipf-driven end-to-end runs in three phases — uncached
// baseline ("cold": every query pays the Threshold Algorithm), warmed
// steady state, and a multi-epoch run that republishes mid-stream with
// hot-user precompute — plus the publish-time precompute cost itself.
// The Zipf benchmarks report their observed cache hit rate via
// b.ReportMetric as "hit_rate" (and the epoch count as "epochs"), which
// scripts/bench.sh query folds into BENCH_query.json.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tcam/internal/datagen"
	"tcam/internal/rescache"
	"tcam/internal/testfixture"
)

// zipfRequests synthesizes a skewed query stream over a users×items
// catalog shaped like testfixture.Bundle's, pre-rendered into HTTP requests so
// the benchmark loop measures serving, not workload formatting.
func zipfRequests(b *testing.B, n, users, items int) []*http.Request {
	b.Helper()
	queries, err := datagen.GenerateQueries(datagen.QueryLoadConfig{
		Queries:      n,
		Users:        users,
		Items:        items,
		UserExponent: 1.2,
		TimeMin:      100, // testfixture's grid: Origin 100, Length 10, Num 3
		TimeMax:      129,
		K:            10,
		MaxExclude:   2,
		Seed:         1,
	})
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]*http.Request, n)
	for i, q := range queries {
		target := fmt.Sprintf("/recommend?user=user-%d&time=%d&k=%d", q.User, q.Time, q.K)
		if len(q.Exclude) > 0 {
			ids := make([]string, len(q.Exclude))
			for j, v := range q.Exclude {
				ids[j] = fmt.Sprintf("item-%d", v)
			}
			target += "&exclude=" + strings.Join(ids, ",")
		}
		reqs[i] = httptest.NewRequest(http.MethodGet, target, nil)
	}
	return reqs
}

const (
	zipfBenchUsers   = 96
	zipfBenchItems   = 64
	zipfBenchQueries = 4096
)

// runZipf drives the request stream through the server b.N times
// (wrapping), reporting the hit rate observed inside the timed window.
func runZipf(b *testing.B, srv *Server, reqs []*http.Request) {
	b.Helper()
	var before rescache.Counters
	if srv.cache != nil {
		before = srv.cache.Counters()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, reqs[i%len(reqs)])
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	b.StopTimer()
	if srv.cache != nil {
		after := srv.cache.Counters()
		if total := (after.Hits - before.Hits) + (after.Misses - before.Misses); total > 0 {
			b.ReportMetric(float64(after.Hits-before.Hits)/float64(total), "hit_rate")
		}
	}
}

// BenchmarkServerRecommendCacheHit is the single-query hit path: the
// same request served from the epoch-versioned cache every iteration.
func BenchmarkServerRecommendCacheHit(b *testing.B) {
	bundle := testfixture.Bundle(b, 6, 12)
	srv, err := New(bundle, WithCache(1024))
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/recommend?user=user-2&time=115&k=4", nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req) // prime the entry
	if w.Code != http.StatusOK {
		b.Fatalf("status %d", w.Code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
	b.StopTimer()
	ctr := srv.cache.Counters()
	if ctr.Hits == 0 || ctr.Misses > 1 {
		b.Fatalf("hit path not exercised: %+v", ctr)
	}
}

// BenchmarkServerZipfUncached is the cold baseline: the same Zipf
// stream with no cache, every query paying the full TA scan.
func BenchmarkServerZipfUncached(b *testing.B) {
	srv, err := New(testfixture.Bundle(b, zipfBenchUsers, zipfBenchItems))
	if err != nil {
		b.Fatal(err)
	}
	runZipf(b, srv, zipfRequests(b, zipfBenchQueries, zipfBenchUsers, zipfBenchItems))
}

// BenchmarkServerZipfCacheWarm is the steady state: cache enabled and
// pre-warmed by one full pass over the stream, so the timed window
// sees the long-run hit rate of the skewed workload.
func BenchmarkServerZipfCacheWarm(b *testing.B) {
	srv, err := New(testfixture.Bundle(b, zipfBenchUsers, zipfBenchItems), WithCache(1<<14))
	if err != nil {
		b.Fatal(err)
	}
	reqs := zipfRequests(b, zipfBenchQueries, zipfBenchUsers, zipfBenchItems)
	for _, req := range reqs {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("warmup status %d", w.Code)
		}
	}
	runZipf(b, srv, reqs)
}

// BenchmarkServerZipfCacheEpochs spans snapshot epochs: the stream runs
// warm, but every 1024 queries the server republishes (precomputing the
// 16 hottest users), so the measured window includes epoch flips, the
// refill misses they cause, and the precompute that softens them.
func BenchmarkServerZipfCacheEpochs(b *testing.B) {
	bundle := testfixture.Bundle(b, zipfBenchUsers, zipfBenchItems)
	srv, err := New(bundle, WithCache(1<<14), WithHotPrecompute(16))
	if err != nil {
		b.Fatal(err)
	}
	reqs := zipfRequests(b, zipfBenchQueries, zipfBenchUsers, zipfBenchItems)
	for _, req := range reqs[:1024] {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("warmup status %d", w.Code)
		}
	}
	const reloadEvery = 1024
	epochs := 1
	before := srv.cache.Counters()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%reloadEvery == 0 {
			if _, err := srv.Reload(bundle); err != nil {
				b.Fatal(err)
			}
			epochs++
		}
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, reqs[i%len(reqs)])
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
	b.StopTimer()
	after := srv.cache.Counters()
	if total := (after.Hits - before.Hits) + (after.Misses - before.Misses); total > 0 {
		b.ReportMetric(float64(after.Hits-before.Hits)/float64(total), "hit_rate")
	}
	b.ReportMetric(float64(epochs), "epochs")
}

// BenchmarkReloadPrecompute is the publish-time cost of warming the 16
// hottest users: one Reload per iteration on a server whose hot
// tracker has seen the Zipf stream.
func BenchmarkReloadPrecompute(b *testing.B) {
	bundle := testfixture.Bundle(b, zipfBenchUsers, zipfBenchItems)
	srv, err := New(bundle, WithCache(1<<14), WithHotPrecompute(16))
	if err != nil {
		b.Fatal(err)
	}
	// Each iteration re-seeds the hot tracker off the clock with the
	// stream's users (user-<i> is dense index i), because every publish decays the sketch and
	// back-to-back reloads with no traffic would age it to empty.
	queries, err := datagen.GenerateQueries(datagen.QueryLoadConfig{
		Queries: 2048, Users: zipfBenchUsers, UserExponent: 1.2, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, q := range queries {
			srv.hot.Observe(uint64(q.User))
		}
		b.StartTimer()
		if _, err := srv.Reload(bundle); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if srv.hotPrecomputed.Load() != 16 {
		b.Fatalf("last publish precomputed %d users, want 16", srv.hotPrecomputed.Load())
	}
}
