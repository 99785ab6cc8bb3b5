package shard

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tcam/internal/api"
	"tcam/internal/client"
	"tcam/internal/cuboid"
	"tcam/internal/faultinject"
	"tcam/internal/index"
	"tcam/internal/testfixture"
)

// altBundle trains a second model over the same 6×12 vocabulary as
// testfixture.Serving but different interactions, so reload-driven
// answer changes are observable.
func altBundle(tb testing.TB) *index.Bundle {
	tb.Helper()
	b := cuboid.NewBuilder(6, 3, 12)
	for u := 0; u < 6; u++ {
		for t := 0; t < 3; t++ {
			b.MustAdd(u, t, (u*3+t*2)%12, 1)
			b.MustAdd(u, t, (t*5+1)%12, 1)
		}
	}
	return testfixture.BundleOf(tb, b.Build(), 3, 0)
}

func coordHealthCache(t *testing.T, c *Coordinator) *api.CacheHealth {
	t.Helper()
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var resp api.FleetHealth
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Cache
}

func scatterCount(f *fleet) int64 {
	var n int64
	for _, c := range f.counters {
		n += c.Load()
	}
	return n
}

// TestCoordinatorCacheServesHits: a repeated query is answered from
// the merged-result cache — byte-identical to the scattered answer,
// with zero shard requests.
func TestCoordinatorCacheServesHits(t *testing.T) {
	f := newFleet(t, 2, func(cfg *Config) { cfg.CacheEntries = 256 }, nil)
	ts := httptest.NewServer(f.c)
	defer ts.Close()
	get := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/recommend?user=user-2&time=115&k=5&exclude=item-1,item-3")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var buf [4096]byte
		n, _ := resp.Body.Read(buf[:])
		return string(buf[:n])
	}
	first := get()
	before := scatterCount(f)
	for i := 0; i < 10; i++ {
		if got := get(); got != first {
			t.Fatalf("cached answer diverged:\ngot:  %s\nwant: %s", got, first)
		}
	}
	if after := scatterCount(f); after != before {
		t.Fatalf("hits still scattered: %d shard requests for 10 cached queries", after-before)
	}
	hc := coordHealthCache(t, f.c)
	if hc == nil || hc.Hits < 10 || hc.Entries == 0 {
		t.Fatalf("cache counters off: %+v", hc)
	}
}

// TestCoordinatorCacheDisabledByDefault: without CacheEntries every
// request scatters and /healthz carries no cache object.
func TestCoordinatorCacheDisabledByDefault(t *testing.T) {
	f := newFleet(t, 2, nil, nil)
	for i := 0; i < 3; i++ {
		if _, err := f.c.Recommend(context.Background(), "user-1", 115, 5, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := scatterCount(f); n != 6 {
		t.Fatalf("scatter count = %d, want 6 (no caching)", n)
	}
	if hc := coordHealthCache(t, f.c); hc != nil {
		t.Fatalf("cache body present without CacheEntries: %+v", hc)
	}
}

// TestCoordinatorCacheDegradedNeverServedAsHealthy: an answer merged
// while a shard was down is keyed by that missing set; once no outage
// is expected, the degraded entry is unreachable, and after recovery
// the full fleet answers exactly.
func TestCoordinatorCacheDegradedNeverServedAsHealthy(t *testing.T) {
	f := newFleet(t, 2, func(cfg *Config) { cfg.CacheEntries = 256 }, nil)
	ctx := context.Background()
	// Outage without a tripped breaker: the expected missing set stays
	// empty, so degraded merges are cached but never looked up.
	faultinject.SetErr("shard1.conn", faultinject.ErrorAlways(faultinject.ErrInjectedConn))
	d1, err := f.c.Recommend(ctx, "user-2", 115, 5, nil)
	if err != nil || !d1.Degraded {
		t.Fatalf("want degraded answer, got %+v, %v", d1, err)
	}
	before := f.counters[0].Load()
	d2, err := f.c.Recommend(ctx, "user-2", 115, 5, nil)
	if err != nil || !d2.Degraded {
		t.Fatalf("want degraded answer, got %+v, %v", d2, err)
	}
	if f.counters[0].Load() == before {
		t.Fatal("unexpected degraded cache hit: no healthy-scope lookup may reach a degraded entry")
	}
	faultinject.Clear("shard1.conn")
	full, err := f.c.Recommend(ctx, "user-2", 115, 5, nil)
	if err != nil || full.Degraded {
		t.Fatalf("after recovery: %+v, %v", full, err)
	}
	want := expect(f.bundle, "user-2", 115, 5, nil, nil)
	if !sameRecs(full.Recommendations, want) {
		t.Fatalf("post-recovery answer %+v != monolithic reference %+v", full.Recommendations, want)
	}
}

// TestCoordinatorCacheDegradedHitsWhileExpected: once the breaker has
// tripped, the missing set is expected, and repeated queries during
// the outage are served from the cache without hammering the
// surviving shards.
func TestCoordinatorCacheDegradedHitsWhileExpected(t *testing.T) {
	f := newFleet(t, 2, func(cfg *Config) {
		cfg.CacheEntries = 256
		cfg.Breaker = client.BreakerConfig{FailureThreshold: 1, OpenTimeout: time.Hour}
	}, nil)
	ctx := context.Background()
	faultinject.SetErr("shard1.conn", faultinject.ErrorAlways(faultinject.ErrInjectedConn))
	// First scatter fails shard1 and trips its breaker; second scatters
	// again (the expected set changed between key build and insert);
	// from the third on the degraded answer is cacheable and expected.
	d1, err := f.c.Recommend(ctx, "user-2", 115, 5, nil)
	if err != nil || !d1.Degraded {
		t.Fatalf("want degraded answer, got %+v, %v", d1, err)
	}
	if _, err := f.c.Recommend(ctx, "user-2", 115, 5, nil); err != nil {
		t.Fatal(err)
	}
	before := f.counters[0].Load()
	d3, err := f.c.Recommend(ctx, "user-2", 115, 5, nil)
	if err != nil || !d3.Degraded {
		t.Fatalf("want degraded answer, got %+v, %v", d3, err)
	}
	if f.counters[0].Load() != before {
		t.Fatal("expected-degraded repeat query still scattered")
	}
	if !sameRecs(d3.Recommendations, expect(f.bundle, "user-2", 115, 5, nil, []Range{f.ranges[1]})) {
		t.Fatalf("cached degraded answer wrong: %+v", d3.Recommendations)
	}
}

// TestCoordinatorCachePassthroughObservesReload: a shard publishing a
// new bundle changes the fleet epoch, but only a scatter can observe
// it. The periodic passthrough guarantees the switch within
// cachePassthroughEvery requests even under a 100% hit rate.
func TestCoordinatorCachePassthroughObservesReload(t *testing.T) {
	f := newFleet(t, 2, func(cfg *Config) { cfg.CacheEntries = 256 }, nil)
	ctx := context.Background()
	oldWant := expect(f.bundle, "user-2", 115, 5, nil, nil)
	alt := altBundle(t)
	newWant := expect(alt, "user-2", 115, 5, nil, nil)
	if sameRecs(oldWant, newWant) {
		t.Fatal("fixture bundles agree; reload would be invisible")
	}
	if _, err := f.c.Recommend(ctx, "user-2", 115, 5, nil); err != nil {
		t.Fatal(err) // warm the cache against the boot fleet
	}
	for i, srv := range f.servers {
		if _, err := srv.Reload(alt); err != nil {
			t.Fatalf("reload shard %d: %v", i, err)
		}
	}
	// The cached pre-reload answer may keep serving, but never past the
	// passthrough horizon, and after the flip it must never come back.
	flipped := -1
	for i := 0; i < 2*cachePassthroughEvery; i++ {
		resp, err := f.c.Recommend(ctx, "user-2", 115, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case sameRecs(resp.Recommendations, newWant):
			if flipped < 0 {
				flipped = i
			}
		case sameRecs(resp.Recommendations, oldWant):
			if flipped >= 0 {
				t.Fatalf("request %d served the pre-reload answer after the epoch flipped at %d", i, flipped)
			}
		default:
			t.Fatalf("request %d: answer matches neither bundle: %+v", i, resp.Recommendations)
		}
	}
	if flipped < 0 || flipped > cachePassthroughEvery {
		t.Fatalf("reload observed at request %d, want within %d", flipped, cachePassthroughEvery)
	}
}
