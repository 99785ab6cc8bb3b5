package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"tcam/internal/api"
	"tcam/internal/faultinject"
	"tcam/internal/index"
	"tcam/internal/ingest"
	"tcam/internal/testfixture"
)

// cachedPair builds two servers over the same bundle: one with the
// result cache on, one plain — the reference for bit-identity checks.
func cachedPair(tb testing.TB, b *index.Bundle, opts ...Option) (cached, plain *Server) {
	tb.Helper()
	cached, err := New(b, append([]Option{WithCache(1024)}, opts...)...)
	if err != nil {
		tb.Fatal(err)
	}
	plain, err = New(b)
	if err != nil {
		tb.Fatal(err)
	}
	return cached, plain
}

func healthCache(t *testing.T, srv *Server) *api.CacheHealth {
	t.Helper()
	w := serveHTTP(srv, http.MethodGet, "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("healthz = %d: %s", w.Code, w.Body.String())
	}
	var resp api.Health
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Cache
}

// TestCacheHitBitIdentical is the tentpole property test: under a
// random workload (users, times, k, exclude lists — including
// duplicates and unknown items) and across two snapshot epochs, every
// response from the cached server must be byte-identical to the
// uncached server's, whether it came from the TA or the cache.
func TestCacheHitBitIdentical(t *testing.T) {
	bundles := []*index.Bundle{testfixture.Bundle(t, 6, 12), testfixture.Bundle(t, 6, 10)}
	cached, plain := cachedPair(t, bundles[0])
	rng := rand.New(rand.NewSource(7))
	items := []string{"item-0", "item-3", "item-7", "item-9", "item-3", "item-404"}
	for epoch, b := range bundles {
		if epoch > 0 {
			if _, err := cached.Reload(b); err != nil {
				t.Fatal(err)
			}
			if _, err := plain.Reload(b); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 400; i++ {
			target := fmt.Sprintf("/recommend?user=user-%d&time=%d&k=%d",
				rng.Intn(6), 95+rng.Intn(40), 1+rng.Intn(11))
			if n := rng.Intn(4); n > 0 {
				target += "&exclude="
				for j := 0; j < n; j++ {
					if j > 0 {
						target += ","
					}
					target += items[rng.Intn(len(items))]
				}
			}
			want := serveHTTP(plain, http.MethodGet, target, "")
			got := serveHTTP(cached, http.MethodGet, target, "")
			if got.Code != want.Code || got.Body.String() != want.Body.String() {
				t.Fatalf("epoch %d: %s diverged:\ncached: %d %s\nplain:  %d %s",
					epoch+1, target, got.Code, got.Body.String(), want.Code, want.Body.String())
			}
		}
	}
	hc := healthCache(t, cached)
	if hc == nil || hc.Hits == 0 {
		t.Fatalf("workload produced no cache hits: %+v", hc)
	}
	if hc.Epoch != 2 {
		t.Fatalf("cache epoch = %d, want 2", hc.Epoch)
	}
}

// TestBatchCacheBitIdentical repeats the property through the batch
// endpoint, with intra-batch duplicates so hits and misses share one
// request, plus cross-traffic from the single-query endpoint.
func TestBatchCacheBitIdentical(t *testing.T) {
	cached, plain := cachedPair(t, testfixture.Bundle(t, 6, 12))
	body := `{"queries":[
		{"user":"user-2","time":115,"k":4},
		{"user":"user-2","time":115,"k":4},
		{"user":"nobody","time":115,"k":4},
		{"user":"user-3","time":115,"k":4,"exclude":["item-1","item-1","item-2"]},
		{"user":"user-3","time":115,"k":4,"exclude":["item-2","item-1"]},
		{"user":"user-2","time":115,"k":5}
	]}`
	// Warm user-2 k=4 through the single endpoint first: single and
	// batch paths must share entries, not shadow each other.
	single := serveHTTP(cached, http.MethodGet, "/recommend?user=user-2&time=115&k=4", "")
	if single.Code != http.StatusOK {
		t.Fatalf("warm query failed: %d", single.Code)
	}
	for round := 0; round < 3; round++ {
		want := serveHTTP(plain, http.MethodPost, "/recommend/batch", body)
		got := serveHTTP(cached, http.MethodPost, "/recommend/batch", body)
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Fatalf("round %d batch diverged:\ncached: %s\nplain:  %s",
				round, got.Body.String(), want.Body.String())
		}
	}
	hc := healthCache(t, cached)
	if hc.Hits == 0 {
		t.Fatal("batch workload produced no cache hits")
	}
}

// TestCacheEpochInvalidation proves a publish logically flushes the
// cache: an answer cached against the old bundle must never surface
// once a new bundle is live, even for the exact same query.
func TestCacheEpochInvalidation(t *testing.T) {
	oldB, newB := testfixture.Bundle(t, 6, 12), testfixture.Bundle(t, 6, 10)
	cached, _ := cachedPair(t, oldB)
	ref, err := New(newB)
	if err != nil {
		t.Fatal(err)
	}
	const target = "/recommend?user=user-1&time=115&k=5"
	before := serveHTTP(cached, http.MethodGet, target, "")
	serveHTTP(cached, http.MethodGet, target, "") // ensure it is cached
	if _, err := cached.Reload(newB); err != nil {
		t.Fatal(err)
	}
	after := serveHTTP(cached, http.MethodGet, target, "")
	want := serveHTTP(ref, http.MethodGet, target, "")
	if after.Body.String() != want.Body.String() {
		t.Fatalf("post-publish answer is not the new bundle's:\ngot:  %s\nwant: %s",
			after.Body.String(), want.Body.String())
	}
	if after.Body.String() == before.Body.String() {
		t.Fatal("fixture bundles answer identically; invalidation unproven")
	}
	hc := healthCache(t, cached)
	if hc.Stale == 0 {
		t.Fatalf("stale counter did not move: %+v", hc)
	}
}

// TestConcurrentQueryDuringPublish hammers the cached server from
// reader goroutines while publishes alternate between two bundles
// with different answers. Every response must match one of the two
// uncached references exactly — a cross-epoch cache entry would
// produce a third, mixed answer. Run under -race this also proves the
// cache wiring is data-race free.
func TestConcurrentQueryDuringPublish(t *testing.T) {
	bundleA, bundleB := testfixture.Bundle(t, 6, 12), testfixture.Bundle(t, 6, 10)
	cached, refA := cachedPair(t, bundleA)
	refB, err := New(bundleB)
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]string, 6)
	wantA := make([]string, len(targets))
	wantB := make([]string, len(targets))
	for u := range targets {
		targets[u] = fmt.Sprintf("/recommend?user=user-%d&time=115&k=5", u)
		wantA[u] = serveHTTP(refA, http.MethodGet, targets[u], "").Body.String()
		wantB[u] = serveHTTP(refB, http.MethodGet, targets[u], "").Body.String()
		if wantA[u] == wantB[u] {
			t.Fatalf("user-%d: fixture bundles agree; cross-epoch mixing would be invisible", u)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				u := rng.Intn(len(targets))
				got := serveHTTP(cached, http.MethodGet, targets[u], "").Body.String()
				if got != wantA[u] && got != wantB[u] {
					select {
					case errs <- fmt.Sprintf("user-%d: cross-epoch answer %s", u, got):
					default:
					}
					return
				}
			}
		}(int64(w))
	}
	for i := 0; i < 30; i++ {
		b := bundleA
		if i%2 == 0 {
			b = bundleB
		}
		if _, err := cached.Reload(b); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestPrecomputeWarmsFreshEpoch: after serve traffic concentrates on
// two users, a publish precomputes their default-shaped answers, so
// their first queries on the fresh epoch hit without ever missing.
func TestPrecomputeWarmsFreshEpoch(t *testing.T) {
	b := testfixture.Bundle(t, 6, 12)
	srv, err := New(b, WithCache(1024), WithHotPrecompute(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		serveHTTP(srv, http.MethodGet, "/recommend?user=user-1&time=115", "")
		serveHTTP(srv, http.MethodGet, "/recommend?user=user-4&time=115", "")
	}
	serveHTTP(srv, http.MethodGet, "/recommend?user=user-0&time=115", "")
	if _, err := srv.Reload(b); err != nil {
		t.Fatal(err)
	}
	hc := healthCache(t, srv)
	if hc.HotPrecomputed != 2 {
		t.Fatalf("hot_precomputed = %d, want 2", hc.HotPrecomputed)
	}
	misses := hc.Misses
	// The live interval is Grid.Num-1 = 2, i.e. times in [120, 130);
	// an absent k is the precomputed default. Both hot users must hit cold.
	for _, u := range []int{1, 4} {
		w := serveHTTP(srv, http.MethodGet, fmt.Sprintf("/recommend?user=user-%d&time=125", u), "")
		if w.Code != http.StatusOK {
			t.Fatalf("user-%d fresh-epoch query = %d", u, w.Code)
		}
	}
	hc = healthCache(t, srv)
	if hc.Misses != misses {
		t.Fatalf("precomputed users missed on the fresh epoch: misses %d → %d", misses, hc.Misses)
	}
	if hc.Hits < 2 {
		t.Fatalf("hits = %d, want ≥ 2", hc.Hits)
	}
}

// TestPrecomputeKilledFallsThrough: a fault in the precompute loop
// aborts warming but must not corrupt the publish — the new epoch
// serves bit-identical answers, cold.
func TestPrecomputeKilledFallsThrough(t *testing.T) {
	b := testfixture.Bundle(t, 6, 12)
	srv, err := New(b, WithCache(1024), WithHotPrecompute(4))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		serveHTTP(srv, http.MethodGet, "/recommend?user=user-2&time=115", "")
	}
	faultinject.SetErr("server.precompute", faultinject.ErrorAlways(errors.New("injected: precompute killed")))
	defer faultinject.Clear("server.precompute")
	if _, err := srv.Reload(b); err != nil {
		t.Fatalf("a killed precompute must not fail the publish: %v", err)
	}
	hc := healthCache(t, srv)
	if hc.HotPrecomputed != 0 {
		t.Fatalf("hot_precomputed = %d after kill, want 0", hc.HotPrecomputed)
	}
	const target = "/recommend?user=user-2&time=125"
	got := serveHTTP(srv, http.MethodGet, target, "")
	want := serveHTTP(ref, http.MethodGet, target, "")
	if got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
		t.Fatalf("post-kill serving diverged: %d %s", got.Code, got.Body.String())
	}
}

// TestHealthzCacheAbsentWhenDisabled keeps the /healthz contract: no
// cache configured, no cache object.
func TestHealthzCacheAbsentWhenDisabled(t *testing.T) {
	srv, _ := testServer(t)
	if hc := healthCache(t, srv); hc != nil {
		t.Fatalf("cache body present without WithCache: %+v", hc)
	}
}

// TestUpdaterSeedsHotTracker: with zero serve traffic, an ingest
// cycle alone must rank users for precompute — the sketch is seeded
// from the replayed log records.
func TestUpdaterSeedsHotTracker(t *testing.T) {
	dir := t.TempDir()
	boot := testfixture.Bundle(t, 6, 12)
	srv, err := New(boot, WithCache(1024), WithHotPrecompute(1))
	if err != nil {
		t.Fatal(err)
	}
	lg, err := ingest.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	up, err := NewUpdater(srv, lg, boot, UpdaterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]ingest.Record, 0, 6)
	for i := 0; i < 5; i++ {
		recs = append(recs, ingest.Record{User: "user-3", Item: "item-1", Time: 125, Score: 1})
	}
	recs = append(recs, ingest.Record{User: "user-0", Item: "item-2", Time: 125, Score: 1})
	if _, err := lg.Append(recs...); err != nil {
		t.Fatal(err)
	}
	published, err := up.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !published {
		t.Fatal("step published nothing")
	}
	hc := healthCache(t, srv)
	if hc.HotPrecomputed != 1 {
		t.Fatalf("hot_precomputed = %d, want 1 (seeded from the log)", hc.HotPrecomputed)
	}
	misses := hc.Misses
	if w := serveHTTP(srv, http.MethodGet, "/recommend?user=user-3&time=125", ""); w.Code != http.StatusOK {
		t.Fatalf("hot user query = %d", w.Code)
	}
	if hc = healthCache(t, srv); hc.Misses != misses || hc.Hits == 0 {
		t.Fatalf("log-seeded hot user missed: %+v", hc)
	}
}
