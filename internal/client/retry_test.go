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

// Satellite fix 1: once the context dies mid-backoff, the loop must
// stop consuming attempts — no further request reaches the wire — and
// the error must carry both the cancellation and the last failure.
func TestCancelMidBackoffConsumesNoMoreAttempts(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c, err := New(Config{BaseURL: ts.URL, MaxRetries: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.sleep = func(ctx context.Context, d time.Duration) error {
		cancel() // the caller gives up while the backoff timer runs
		return ctx.Err()
	}
	_, err = c.Health(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "503") && !strings.Contains(err.Error(), "last attempt") {
		t.Errorf("err %q does not mention the failure that caused the wait", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d attempts, want 1 (no attempts after cancellation)", got)
	}
}

// The race window where the context dies in the same instant the
// backoff timer fires: a sleeper that returns nil with a dead context
// must still not buy another attempt.
func TestDeadContextAfterBackoffConsumesNoMoreAttempts(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c, err := New(Config{BaseURL: ts.URL, MaxRetries: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.sleep = func(context.Context, time.Duration) error {
		cancel()
		return nil // timer "won" the select, but the context is dead
	}
	if _, err := c.Health(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d attempts, want 1", got)
	}
}

// Satellite fix 2: a Retry-After hint beyond the remaining deadline is
// not slept on — the call fails immediately with the real cause instead
// of parking until the deadline kills it.
func TestRetryAfterClampedToRemainingDeadline(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "3600")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()
	c, err := New(Config{BaseURL: ts.URL, MaxRetries: 5})
	if err != nil {
		t.Fatal(err)
	}
	slept := false
	c.sleep = func(context.Context, time.Duration) error {
		slept = true
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	_, err = c.Health(ctx)
	if err == nil {
		t.Fatal("call succeeded against a permanently shedding server")
	}
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want the wrapped 429", err)
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Errorf("err %q does not explain the deadline clamp", err)
	}
	if slept {
		t.Error("client slept on a Retry-After it could never outlast")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d attempts, want 1", got)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("call took %v, want an immediate failure", took)
	}
}

// A Retry-After that fits inside the deadline is still honored.
func TestRetryAfterWithinDeadlineStillHonored(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		_, _ = w.Write([]byte(`{"status":"ok"}`))
	}))
	defer ts.Close()
	c, delays := newTestClient(t, ts.URL, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	if _, err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if len(*delays) != 1 || (*delays)[0] != time.Second {
		t.Errorf("delays = %v, want the server's 1s hint", *delays)
	}
}
