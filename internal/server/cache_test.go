package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
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

// sameResponse fails unless got and want carry one status, one header
// set and one body.
func sameResponse(t *testing.T, what string, got, want *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != want.Code || got.Body.String() != want.Body.String() ||
		!reflect.DeepEqual(got.Result().Header, want.Result().Header) {
		t.Fatalf("%s diverged:\ncached: %d %v %s\nplain:  %d %v %s", what,
			got.Code, got.Result().Header, got.Body.String(), want.Code, want.Result().Header, want.Body.String())
	}
}

// cachedEntry is the entry srv's cache holds for a /recommend target at
// the serving generation. The lookup counts exactly one hit or one miss
// (and asserts so), so a caller comparing cache counters must take its
// snapshots after calling it.
func cachedEntry(t *testing.T, srv *Server, target string) (Answer, bool) {
	t.Helper()
	sc := srv.snapshot().Acquire()
	defer sc.Release()
	if err := sc.Query.ParseRawQuery(strings.TrimPrefix(target, "/recommend?")); err != nil {
		t.Fatal(err)
	}
	if err := sc.resolve(&sc.Query); err != nil {
		t.Fatal(err)
	}
	before := srv.cache.Counters()
	a, ok := srv.cache.Get(sc.gen.version, sc.key)
	after := srv.cache.Counters()
	if ok && after.Hits != before.Hits+1 || !ok && after.Misses != before.Misses+1 {
		t.Fatalf("counters moved unexpectedly: %+v → %+v", before, after)
	}
	return a, ok
}

// TestCacheHitBitIdentical is the tentpole property test: a cached
// server answers with the uncached server's status, headers and bytes
// at every point an entry's body goes through — the miss that inserts
// it bare, the first hit that renders and keeps its body, a hit that
// only writes the kept body, and the first hit after a publish, on a
// warmed (bare) entry or not — and then under a random workload (users,
// times, k, exclude lists — including duplicates and unknown items)
// across two epochs.
func TestCacheHitBitIdentical(t *testing.T) {
	bundles := []*index.Bundle{testfixture.Bundle(t, 6, 12), testfixture.Bundle(t, 6, 10)}
	t.Run("body lifecycle", func(t *testing.T) {
		cached, plain := cachedPair(t, bundles[0], WithHotPrecompute(1))
		// The hot target is the default-shaped query at the live interval,
		// which a publish warms; the cold one is never warmed.
		const hot, cold = "/recommend?user=user-1&time=125", "/recommend?user=user-3&time=105&k=4&exclude=item-3,item-3,item-404"
		step := func(what, target string, hit bool) {
			t.Helper()
			before := cached.cache.Counters()
			sameResponse(t, what+" "+target, serveHTTP(cached, http.MethodGet, target, ""), serveHTTP(plain, http.MethodGet, target, ""))
			after := cached.cache.Counters()
			if gotHit := after.Hits > before.Hits; gotHit != hit {
				t.Fatalf("%s %s: hit = %v, want %v (%+v → %+v)", what, target, gotHit, hit, before, after)
			}
			if a, ok := cachedEntry(t, cached, target); !ok || (a.Body != nil) != hit {
				t.Fatalf("%s %s: entry present %v with body %q; want a body exactly after a hit", what, target, ok, a.Body)
			}
		}
		for _, target := range []string{hot, cold} {
			step("miss", target, false)
			step("first hit", target, true)
			step("promoted hit", target, true)
		}
		step("promoted hit", hot, true) // the hottest user, so the publish warms it
		for _, srv := range []*Server{cached, plain} {
			if _, err := srv.Reload(bundles[1]); err != nil {
				t.Fatal(err)
			}
		}
		if a, ok := cachedEntry(t, cached, hot); !ok || a.Body != nil {
			t.Fatalf("the publish did not warm %s bare: present %v, body %q", hot, ok, a.Body)
		}
		step("first request after publish, warmed", hot, true)
		step("first request after publish", cold, false)
		step("first hit after publish", cold, true)
	})

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
			sameResponse(t, fmt.Sprintf("epoch %d: %s", epoch+1, target), got, want)
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

// TestPromotionNeverOverwritesANewerEpoch stages the race a promotion
// can lose: a request hits an entry at epoch E, a publish of E+1 warms
// the same key (rewriting its slot), and only then does the request
// keep its body. The promotion must change nothing — the E+1 entry
// survives, bare as warming left it, and the next request hits it and
// promotes it with its own body — where a plain insert at E would have
// put the old generation's answer back.
func TestPromotionNeverOverwritesANewerEpoch(t *testing.T) {
	oldB, newB := testfixture.Bundle(t, 6, 12), testfixture.Bundle(t, 6, 10)
	srv, err := New(oldB, WithCache(1024), WithHotPrecompute(1))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(newB)
	if err != nil {
		t.Fatal(err)
	}
	const target = "/recommend?user=user-1&time=125"
	serveHTTP(srv, http.MethodGet, target, "") // the miss inserts the epoch-1 entry bare

	sc := srv.snapshot().Acquire()
	defer sc.Release()
	if err := sc.Query.ParseRawQuery(strings.TrimPrefix(target, "/recommend?")); err != nil {
		t.Fatal(err)
	}
	a, err := sc.Answer(&sc.Query)
	if err != nil || a.Body != nil {
		t.Fatalf("epoch-1 hit = %v with body %q; want a bare hit", err, a.Body)
	}
	if _, err := srv.Reload(newB); err != nil { // warms user-1 at epoch 2
		t.Fatal(err)
	}
	stale, ok := sc.body(&a)
	if !ok {
		t.Fatal("epoch-1 answer did not render")
	}
	want := serveHTTP(ref, http.MethodGet, target, "")
	if string(stale) == want.Body.String() {
		t.Fatal("fixture bundles answer identically; the lost promotion would be invisible")
	}
	kept, ok := cachedEntry(t, srv, target)
	if !ok || kept.Body != nil {
		t.Fatalf("epoch-2 entry after a stale promotion: present %v, body %q; want the warmed entry, bare", ok, kept.Body)
	}
	before := srv.cache.Counters()
	sameResponse(t, target, serveHTTP(srv, http.MethodGet, target, ""), want)
	if after := srv.cache.Counters(); after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("the request after the lost promotion did not hit: %+v → %+v", before, after)
	}
	if kept, ok := cachedEntry(t, srv, target); !ok || string(kept.Body) != want.Body.String() {
		t.Fatalf("epoch-2 entry after its own first hit: present %v, body %q; want %q", ok, kept.Body, want.Body.String())
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
// produce a third, mixed answer. Each publish warms the hottest users'
// entries, bodies included, while readers promote theirs. Run under
// -race this also proves the cache wiring is data-race free.
func TestConcurrentQueryDuringPublish(t *testing.T) {
	bundleA, bundleB := testfixture.Bundle(t, 6, 12), testfixture.Bundle(t, 6, 10)
	cached, refA := cachedPair(t, bundleA, WithHotPrecompute(3))
	refB, err := New(bundleB)
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]string, 6)
	wantA := make([]string, len(targets))
	wantB := make([]string, len(targets))
	for u := range targets {
		targets[u] = fmt.Sprintf("/recommend?user=user-%d&time=115&k=5", u)
		if u%2 == 0 { // the default shape at the live interval, which publishes warm
			targets[u] = fmt.Sprintf("/recommend?user=user-%d&time=125", u)
		}
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
// their first queries on the fresh epoch hit without ever missing. The
// warmed entries carry no body until that first hit promotes one.
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
	// A warmed entry is present and bare: warming inserts no body.
	for _, u := range []int{1, 4} {
		target := fmt.Sprintf("/recommend?user=user-%d&time=125", u)
		if a, ok := cachedEntry(t, srv, target); !ok || a.Body != nil {
			t.Fatalf("user-%d's warmed entry: present %v, body %q; want present and bare", u, ok, a.Body)
		}
	}
	// The live interval is Grid.Num-1 = 2, i.e. times in [120, 130);
	// an absent k is the precomputed default. Both hot users must hit
	// cold, and that first hit promotes the entry with the body an
	// uncached server renders for it, byte for byte.
	ref, err := New(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{1, 4} {
		target := fmt.Sprintf("/recommend?user=user-%d&time=125", u)
		w := serveHTTP(srv, http.MethodGet, target, "")
		want := serveHTTP(ref, http.MethodGet, target, "").Body.String()
		if w.Code != http.StatusOK || w.Body.String() != want {
			t.Fatalf("user-%d fresh-epoch query = %d %q; want 200 %q", u, w.Code, w.Body.String(), want)
		}
		if a, ok := cachedEntry(t, srv, target); !ok || string(a.Body) != want {
			t.Fatalf("user-%d's entry after its first hit: present %v, body %q; want %q", u, ok, a.Body, want)
		}
	}
	hc = healthCache(t, srv)
	if hc.Misses != misses {
		t.Fatalf("precomputed users missed on the fresh epoch: misses %d → %d", misses, hc.Misses)
	}
	if hc.Hits < 2 {
		t.Fatalf("hits = %d, want ≥ 2", hc.Hits)
	}
	// An entry only ever missed has no body.
	const missed = "/recommend?user=user-0&time=125&k=3"
	serveHTTP(srv, http.MethodGet, missed, "")
	if a, ok := cachedEntry(t, srv, missed); !ok || a.Body != nil {
		t.Fatalf("a missed entry: present %v, body %q; want present and bare", ok, a.Body)
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
