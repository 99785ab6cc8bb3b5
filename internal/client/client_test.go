package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tcam/internal/api"
)

// recordingSleeper replaces the client's wait with a recorder so retry
// cadence is asserted without real delays.
func recordingSleeper(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return ctx.Err()
	}
}

func newTestClient(t *testing.T, url string, cfg Config) (*Client, *[]time.Duration) {
	t.Helper()
	cfg.BaseURL = url
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var delays []time.Duration
	c.sleep = recordingSleeper(&delays)
	return c, &delays
}

func TestRecommendSuccess(t *testing.T) {
	var gotPath atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotPath.Store(r.URL.String())
		w.Header().Set("Content-Type", "application/json")
		if _, err := w.Write([]byte(`{"user":"u1","interval":3,"recommendations":[{"item":"a","score":0.5}],"items_examined":7}`)); err != nil {
			t.Error(err)
		}
	}))
	defer ts.Close()
	c, delays := newTestClient(t, ts.URL, Config{})
	res, err := c.Recommend(context.Background(), "u1", 42, 5, []string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interval != 3 || len(res.Recommendations) != 1 || res.Recommendations[0].Item != "a" {
		t.Errorf("result = %+v", res)
	}
	if want := "/recommend?user=u1&time=42&k=5&exclude=x,y"; gotPath.Load() != want {
		t.Errorf("path = %q, want %q", gotPath.Load(), want)
	}
	if len(*delays) != 0 {
		t.Errorf("slept %v on a clean call", *delays)
	}
}

// 429 + Retry-After must be retried after exactly the advertised delay.
func TestRetryHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusTooManyRequests)
			if _, err := w.Write([]byte(`{"error":"saturated"}`)); err != nil {
				t.Error(err)
			}
			return
		}
		if _, err := w.Write([]byte(`{"status":"ok","version":4}`)); err != nil {
			t.Error(err)
		}
	}))
	defer ts.Close()
	c, delays := newTestClient(t, ts.URL, Config{})
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != 4 {
		t.Errorf("health = %+v", h)
	}
	if calls.Load() != 3 {
		t.Errorf("attempts = %d, want 3", calls.Load())
	}
	if len(*delays) != 2 || (*delays)[0] != 3*time.Second || (*delays)[1] != 3*time.Second {
		t.Errorf("delays = %v, want two 3s waits from Retry-After", *delays)
	}
}

// Without Retry-After, waits follow capped jittered exponential
// backoff: attempt n in [base·2ⁿ/2, base·2ⁿ], never above MaxDelay.
func TestRetryBackoffJitteredAndCapped(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	base, max := 100*time.Millisecond, 300*time.Millisecond
	c, delays := newTestClient(t, ts.URL, Config{MaxRetries: 4, BaseDelay: base, MaxDelay: max, Seed: 7})
	_, err := c.Health(context.Background())
	if err == nil {
		t.Fatal("succeeded against an always-503 server")
	}
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Errorf("err = %v, want wrapped 503 APIError", err)
	}
	want := []time.Duration{base, 2 * base, max, max} // pre-jitter ladder
	if len(*delays) != len(want) {
		t.Fatalf("delays = %v, want %d waits", *delays, len(want))
	}
	for i, d := range *delays {
		if d < want[i]/2 || d > want[i] {
			t.Errorf("delay %d = %v, want in [%v, %v]", i, d, want[i]/2, want[i])
		}
	}
}

// The jitter stream is seeded: same seed, same delays.
func TestBackoffDeterministicPerSeed(t *testing.T) {
	mk := func(seed int64) []time.Duration {
		c, err := New(Config{BaseURL: "http://unused", Seed: seed, BaseDelay: time.Second, MaxDelay: 16 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]time.Duration, 4)
		for i := range out {
			out[i] = c.backoff(i)
		}
		return out
	}
	a, b := mk(7), mk(7)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("seed 7 diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Non-retryable statuses fail immediately with the server's message.
func TestNoRetryOn404(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusNotFound)
		if _, err := w.Write([]byte(`{"error":"unknown user \"ghost\""}`)); err != nil {
			t.Error(err)
		}
	}))
	defer ts.Close()
	c, _ := newTestClient(t, ts.URL, Config{})
	_, err := c.Recommend(context.Background(), "ghost", 1, 5, nil)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("err = %v, want 404 APIError", err)
	}
	if !strings.Contains(apiErr.Msg, "ghost") {
		t.Errorf("message = %q, want the server's error text", apiErr.Msg)
	}
	if calls.Load() != 1 {
		t.Errorf("attempts = %d, want 1 (no retry on 404)", calls.Load())
	}
}

// A cancelled context aborts the retry loop during the wait.
func TestContextCancelStopsRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c, err := New(Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.sleep = func(ctx context.Context, d time.Duration) error {
		cancel() // cancellation lands mid-wait
		return ctx.Err()
	}
	if _, err := c.Health(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// Transport-level failures (connection refused) are retried too.
func TestTransportErrorRetried(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close() // nothing listens here anymore
	c, delays := newTestClient(t, ts.URL, Config{MaxRetries: 2})
	if _, err := c.Health(context.Background()); err == nil {
		t.Fatal("succeeded against a closed server")
	}
	if len(*delays) != 2 {
		t.Errorf("waited %d times, want 2 retries", len(*delays))
	}
}

func TestRecommendBatchRoundTrip(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/recommend/batch" {
			t.Errorf("got %s %s", r.Method, r.URL.Path)
		}
		if _, err := w.Write([]byte(`{"results":[{"user":"u1","recommendations":[{"item":"a","score":1}]}],"truncated":true}`)); err != nil {
			t.Error(err)
		}
	}))
	defer ts.Close()
	c, _ := newTestClient(t, ts.URL, Config{})
	res, err := c.RecommendBatch(context.Background(), []api.Query{{User: "u1", Time: 5, K: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || len(res.Results) != 1 || res.Results[0].Recommendations[0].Item != "a" {
		t.Errorf("batch = %+v", res)
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted an empty BaseURL")
	}
}

// Health surfaces the cache sub-object when the target reports one,
// and leaves Cache nil when it doesn't.
func TestHealthDecodesCache(t *testing.T) {
	body := `{"status":"ok","version":2,"cache":{"hits":40,"misses":8,"stale":3,"entries":12,"epoch":2,"hot_precomputed":5}}`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := w.Write([]byte(body)); err != nil {
			t.Error(err)
		}
	}))
	defer ts.Close()
	c, _ := newTestClient(t, ts.URL, Config{})
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := api.CacheHealth{Hits: 40, Misses: 8, Stale: 3, Entries: 12, Epoch: 2, HotPrecomputed: 5}
	if h.Cache == nil || *h.Cache != want {
		t.Fatalf("cache = %+v, want %+v", h.Cache, want)
	}
	body = `{"status":"ok","version":2}`
	h, err = c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Cache != nil {
		t.Fatalf("cache body present without caching: %+v", h.Cache)
	}
}
