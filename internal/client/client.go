// Package client is a retrying HTTP client for the tcamserver API. It
// complements the server's load shedding: a shed (429) or unavailable
// (503) response is retried with capped, jittered exponential backoff,
// honoring the server's Retry-After hint, so a fleet of well-behaved
// clients converges instead of hammering a saturated instance.
//
// Retries are bounded, jitter comes from an explicitly seeded source
// (deterministic under test), and every wait respects the caller's
// context.
//
// The package also holds what the shard coordinator's scatter legs are
// made of: Attempt (one exchange), Breaker, Hedger (when a straggler
// deserves a backup request) and Transport, the legs' HTTP/1.1 round
// tripper. The coordinator runs a leg's attempts, and its hedge, itself.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"tcam/internal/api"
)

// Config parameterizes a Client; zero fields take defaults.
type Config struct {
	// BaseURL locates the server, e.g. "http://localhost:8080".
	BaseURL string
	// MaxRetries bounds re-attempts after the first try (default 3, so
	// at most 4 requests per call). Negative disables retries.
	MaxRetries int
	// BaseDelay seeds the exponential backoff (default 50ms); attempt
	// n waits ~BaseDelay·2ⁿ, jittered, capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the computed backoff (default 2s). A server
	// Retry-After hint overrides the computed value.
	MaxDelay time.Duration
	// Seed makes the jitter stream reproducible (default 1).
	Seed int64
	// HTTPClient overrides the transport (default: 30s total timeout).
	HTTPClient *http.Client
}

// Client is safe for concurrent use.
type Client struct {
	base       string
	maxRetries int
	baseDelay  time.Duration
	maxDelay   time.Duration
	hc         *http.Client

	mu  sync.Mutex // guards rng
	rng *rand.Rand

	sleep func(ctx context.Context, d time.Duration) error // test seam
}

// New validates cfg and builds a Client.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("client: BaseURL is required")
	}
	c := &Client{
		base:       strings.TrimRight(cfg.BaseURL, "/"),
		maxRetries: cfg.MaxRetries,
		baseDelay:  cfg.BaseDelay,
		maxDelay:   cfg.MaxDelay,
		hc:         cfg.HTTPClient,
		sleep:      sleepCtx,
	}
	if cfg.MaxRetries == 0 {
		c.maxRetries = 3
	} else if cfg.MaxRetries < 0 {
		c.maxRetries = 0
	}
	if c.baseDelay <= 0 {
		c.baseDelay = 50 * time.Millisecond
	}
	if c.maxDelay <= 0 {
		c.maxDelay = 2 * time.Second
	}
	if c.hc == nil {
		c.hc = &http.Client{Timeout: 30 * time.Second}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	c.rng = rand.New(rand.NewSource(seed))
	return c, nil
}

// Recommend fetches the temporal top-k for one user at a timestamp from
// a server or a shard coordinator (the only producer of a degraded
// response). An exclude id containing "," cannot travel on the GET form
// (see api.Query.ParseRawQuery); use RecommendBatch for those.
func (c *Client) Recommend(ctx context.Context, user string, when int64, k int, exclude []string) (*api.RecommendResponse, error) {
	q := api.Query{User: user, Time: when, K: k, Exclude: exclude}
	path := "/recommend?" + q.Form()
	var out api.RecommendResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RecommendBatch answers many queries in one round trip. The result is
// Truncated when the server's request deadline cut the batch short.
func (c *Client) RecommendBatch(ctx context.Context, queries []api.Query) (*api.BatchResponse, error) {
	body, err := json.Marshal(api.BatchRequest{Queries: queries})
	if err != nil {
		return nil, fmt.Errorf("client: encode batch: %w", err)
	}
	var out api.BatchResponse
	if err := c.do(ctx, http.MethodPost, "/recommend/batch", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (*api.Health, error) {
	var out api.Health
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// retryable reports the statuses worth re-attempting: shed load,
// drain/overload, and upstream gateway hiccups.
func retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusBadGateway, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// do runs one logical call: attempt, and on a retryable failure wait
// (Retry-After if the server said so, jittered exponential backoff
// otherwise) and re-attempt, up to MaxRetries times.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out interface{}) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return fmt.Errorf("client: %w", err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		retryAfter := time.Duration(-1)
		hdr, err := Attempt(c.hc, req, out)
		var apiErr *api.Error
		switch {
		case err == nil:
			return nil
		case errors.As(err, &apiErr):
			if !retryable(apiErr.Status) {
				return err
			}
			if ra, ok := parseRetryAfter(hdr.Get("Retry-After")); ok {
				retryAfter = ra
			}
		case hdr != nil:
			return err // a 200 that did not decode: retrying cannot help
		case ctx.Err() != nil:
			return ctx.Err()
		}
		lastErr = err // a retryable status or a transport error (conn refused, reset, …)
		if attempt >= c.maxRetries {
			return fmt.Errorf("client: giving up after %d attempts: %w", attempt+1, lastErr)
		}
		delay := c.backoff(attempt)
		if retryAfter >= 0 {
			delay = retryAfter
		}
		// Honor Retry-After (and the computed backoff) only up to the
		// remaining deadline: a wait that cannot end before the caller's
		// deadline would burn wall-clock on a sleep guaranteed to be
		// cancelled. Fail now with the real cause instead.
		if deadline, ok := ctx.Deadline(); ok {
			if remaining := time.Until(deadline); delay >= remaining {
				return fmt.Errorf("client: retry delay %v exceeds the %v remaining before the deadline: %w",
					delay, remaining.Round(time.Millisecond), lastErr)
			}
		}
		if err := c.sleep(ctx, delay); err != nil {
			// Cancelled mid-backoff: stop consuming attempts and surface
			// both the cancellation and the failure that caused the wait.
			return fmt.Errorf("client: %w; last attempt: %v", err, lastErr)
		}
		if ctx.Err() != nil {
			// The context died in the same instant the backoff timer
			// fired; re-attempting with a dead context would only consume
			// budget to manufacture the same error.
			return fmt.Errorf("client: %w; last attempt: %v", ctx.Err(), lastErr)
		}
	}
}

// backoff computes the jittered exponential delay for re-attempt n:
// BaseDelay·2ⁿ capped at MaxDelay, then jittered to [d/2, d] so a
// burst of shed clients decorrelates instead of retrying in lockstep.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.baseDelay
	for i := 0; i < attempt && d < c.maxDelay; i++ {
		d *= 2
	}
	if d > c.maxDelay {
		d = c.maxDelay
	}
	c.mu.Lock()
	jittered := d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	c.mu.Unlock()
	return jittered
}

// parseRetryAfter reads the delay-seconds form of Retry-After (the
// form tcamserver emits). The HTTP-date form is ignored.
func parseRetryAfter(h string) (time.Duration, bool) {
	if h == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// Attempt runs one HTTP exchange and decodes a 200 into out (api.Decode:
// as json.Decoder would, a shard's partial by hand). Any other
// status comes back as an *api.Error carrying it and the server's
// {"error": ...} message (the raw body when there is none). The
// response headers are returned whenever a response arrived.
func Attempt(hc *http.Client, req *http.Request, out interface{}) (http.Header, error) {
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		// Discard any unread body so the connection can be reused.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		var e api.ErrorResponse
		if json.Unmarshal(raw, &e) != nil || e.Error == "" {
			if e.Error = strings.TrimSpace(string(raw)); e.Error == "" {
				e.Error = resp.Status
			}
		}
		return resp.Header, &api.Error{Status: resp.StatusCode, Msg: e.Error}
	}
	if err := api.Decode(resp.Body, out); err != nil {
		return resp.Header, fmt.Errorf("client: decode %s: %w", req.URL.Path, err)
	}
	return resp.Header, nil
}

// sleepCtx waits for d or the context, whichever ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
