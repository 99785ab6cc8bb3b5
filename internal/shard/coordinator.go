package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"tcam/internal/api"
	"tcam/internal/client"
	"tcam/internal/faultinject"
	"tcam/internal/server"
)

// ShardConfig describes one shard of the fleet.
type ShardConfig struct {
	// BaseURL locates the shard server, e.g. "http://10.0.0.3:8080".
	BaseURL string
	// Items is the catalog window the shard serves — reported as
	// missing when the shard is unavailable.
	Items Range
	// HTTPClient overrides the transport for this shard (default: one
	// shared client with a 30s timeout). Tests use it to wire
	// httpfault.Transport per shard.
	HTTPClient *http.Client
}

// Config parameterizes a Coordinator; zero fields take defaults.
type Config struct {
	// Shards is the fleet, one entry per item range. Required.
	Shards []ShardConfig
	// ShardTimeout is the per-shard deadline budget carved from each
	// request's context (default 2s): a straggler or black-holed shard
	// costs at most this much of the request's wall clock.
	ShardTimeout time.Duration
	// Breaker templates the per-shard circuit breakers; each shard's
	// breaker derives its jitter seed from Breaker.Seed plus the shard
	// index, so probe schedules decorrelate but stay reproducible.
	Breaker client.BreakerConfig
	// Hedger templates the per-shard latency trackers that decide when
	// a straggler deserves a backup request.
	Hedger client.HedgerConfig
	// Logger takes the coordinator's log records (recovered panics,
	// breaker transitions). Without it the coordinator is silent.
	Logger *slog.Logger
}

// Coordinator scatter-gathers queries across a shard fleet and merges
// the partial top-k lists. Behind the server.Shell it holds it serves
// the same /recommend door a monolithic tcamserver exposes, plus
// /healthz and /readyz that surface per-shard breaker state. It caches
// nothing: every request scatters, and each shard answers from its own
// result cache, whose epoch is exactly the generation it serves
// (DESIGN.md §16). Safe for concurrent use.
type Coordinator struct {
	*server.Shell
	shards  []*shardConn
	timeout time.Duration
}

// shardConn is the coordinator's per-shard state: transport, breaker,
// and latency tracker.
type shardConn struct {
	base    string
	items   Range
	hc      *http.Client
	breaker *client.Breaker
	hedger  *client.Hedger
}

// New validates cfg and builds a Coordinator. Shard item ranges must be
// non-empty and non-overlapping; they are kept sorted by Lo so merged
// output and missing-range reports are deterministic.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("shard: at least one shard is required")
	}
	c := &Coordinator{timeout: cfg.ShardTimeout}
	if c.timeout <= 0 {
		c.timeout = 2 * time.Second
	}
	shared := &http.Client{Timeout: 30 * time.Second}
	ordered := make([]ShardConfig, len(cfg.Shards))
	copy(ordered, cfg.Shards)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Items.Lo < ordered[j].Items.Lo })
	for i, sc := range ordered {
		if sc.BaseURL == "" {
			return nil, fmt.Errorf("shard: shard %d has no BaseURL", i)
		}
		if sc.Items.Hi <= sc.Items.Lo || sc.Items.Lo < 0 {
			return nil, fmt.Errorf("shard: shard %d item range [%d,%d) is empty or negative",
				i, sc.Items.Lo, sc.Items.Hi)
		}
		if i > 0 && sc.Items.Lo < ordered[i-1].Items.Hi {
			return nil, fmt.Errorf("shard: item ranges [%d,%d) and [%d,%d) overlap",
				ordered[i-1].Items.Lo, ordered[i-1].Items.Hi, sc.Items.Lo, sc.Items.Hi)
		}
		bc := cfg.Breaker
		if bc.Seed == 0 {
			bc.Seed = 1
		}
		bc.Seed += int64(i)
		hc := sc.HTTPClient
		if hc == nil {
			hc = shared
		}
		c.shards = append(c.shards, &shardConn{
			base:    strings.TrimRight(sc.BaseURL, "/"),
			items:   sc.Items,
			hc:      hc,
			breaker: client.NewBreaker(bc),
			hedger:  client.NewHedger(cfg.Hedger),
		})
	}
	c.Shell = server.NewShell(cfg.Logger, c.health, c.ready, nil)
	c.Door("/recommend", http.MethodGet, "coordinator.recommend", server.NewLimiter(server.DefaultMaxInflight), c.handleRecommend)
	return c, nil
}

// FleetConfigs partitions an n-item catalog across the given base URLs
// with Partition's ceil-chunk split — the deploy-time helper that keeps
// the coordinator's view and the shards' WithItemRange windows in sync.
func FleetConfigs(n int, baseURLs []string) []ShardConfig {
	ranges := Partition(n, len(baseURLs))
	out := make([]ShardConfig, len(ranges))
	for i, r := range ranges {
		out[i] = ShardConfig{BaseURL: baseURLs[i], Items: r}
	}
	return out
}

// errBreakerOpen marks a shard skipped without a request because its
// breaker is open.
var errBreakerOpen = errors.New("shard: circuit breaker open")

// post runs one POST /shard/query attempt against the shard.
func (sc *shardConn) post(ctx context.Context, body []byte) (*api.ShardPartial, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, sc.base+"/shard/query", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	var out api.ShardPartial
	if _, err := client.Attempt(sc.hc, hreq, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// rejection returns err as the shard's refusal of the caller's request
// (400, 404, 413: bad k, unknown user, oversized body), or nil when the
// failure is the shard's or the network's own. A rejection means the
// shard answered: it never counts against a breaker and propagates.
func rejection(err error) *api.Error {
	var e *api.Error
	if errors.As(err, &e) {
		switch e.Status {
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
			return e
		}
	}
	return nil
}

// query runs one shard's scatter leg: breaker admission, a deadline
// budget carved from ctx, and a hedged request — the backup fires after
// the shard's observed latency quantile, the first success wins, and
// the loser's context is cancelled. A half-open breaker admits exactly
// one un-hedged probe. The log carries one record per breaker
// transition — the trip with the failure that caused it — and nothing
// per failed or skipped leg, so a dead shard costs a few records per
// cooldown, not one per request.
func (c *Coordinator) query(ctx context.Context, sc *shardConn, body []byte) (*api.ShardPartial, error) {
	if !sc.breaker.Allow() {
		return nil, errBreakerOpen
	}
	sctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	delay := sc.hedger.Delay()
	if sc.breaker.State() == client.BreakerHalfOpen {
		delay = -1 // the recovery probe is a single request, never doubled
		c.Log.Info("shard breaker half-open: probing", "shard", sc.base)
	}
	start := time.Now()
	resp, _, err := client.Hedge(sctx, delay, func(actx context.Context) (*api.ShardPartial, error) {
		return sc.post(actx, body)
	})
	if err != nil && rejection(err) == nil {
		if sc.breaker.Failure() {
			c.Log.Warn("shard breaker open", "shard", sc.base, "err", err)
		}
		return nil, err
	}
	if err == nil {
		sc.hedger.Observe(time.Since(start))
	}
	if sc.breaker.Success() {
		c.Log.Info("shard breaker closed", "shard", sc.base)
	}
	return resp, err
}

// Recommend scatter-gathers one query across the fleet and merges the
// partial top-k lists. The response is exact when every shard answered,
// degraded (with the missing ranges named) when some did, and the error
// is ErrAllShardsDown when none did. A request the fleet rejects — k out
// of bounds here, or a shard's own 400/404/413 — fails with an
// *api.Error.
func (c *Coordinator) Recommend(ctx context.Context, user string, when int64, k int, exclude []string) (*api.RecommendResponse, error) {
	req := &api.Query{User: user, Time: when, K: k, Exclude: exclude}
	if err := req.Normalize(); err != nil {
		return nil, err
	}
	faultinject.Fire("coordinator.scatter")
	body, err := json.Marshal(req) // once, shared by every leg and hedge
	if err != nil {
		return nil, fmt.Errorf("shard: encode query: %w", err)
	}
	parts := make([]*api.ShardPartial, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, sc := range c.shards {
		wg.Add(1)
		go func(i int, sc *shardConn) {
			defer wg.Done()
			parts[i], errs[i] = c.query(ctx, sc, body)
		}(i, sc)
	}
	wg.Wait()
	alive := make([]*api.ShardPartial, 0, len(parts))
	var missing []Range
	for i, p := range parts {
		if p != nil {
			alive = append(alive, p)
			continue
		}
		if rejected := rejection(errs[i]); rejected != nil {
			return nil, rejected
		}
		missing = append(missing, c.shards[i].items)
	}
	if len(alive) == 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, ErrAllShardsDown
	}
	merged := mergeTopK(alive, req.K)
	resp := &api.RecommendResponse{
		User:              user,
		Interval:          alive[0].Interval,
		Recommendations:   make([]api.Recommendation, 0, len(merged)),
		Degraded:          len(missing) > 0,
		MissingItemRanges: missing,
	}
	for _, p := range alive {
		resp.ItemsExamined += p.ItemsExamined
	}
	for _, res := range merged {
		resp.Recommendations = append(resp.Recommendations, api.Recommendation{Item: res.Name, Score: res.Score})
	}
	return resp, nil
}

// ErrAllShardsDown is returned when no shard produced a partial result:
// there is nothing to serve, degraded or otherwise.
var ErrAllShardsDown = errors.New("shard: all shards unavailable")

// handleRecommend is the monolith's GET /recommend door in front of
// the fleet, behind the same Shell.Door: parse, scatter-gather, write.
func (c *Coordinator) handleRecommend(w http.ResponseWriter, r *http.Request) {
	var q api.Query
	err := q.ParseForm(r.URL.Query())
	var resp *api.RecommendResponse
	if err == nil {
		resp, err = c.Recommend(r.Context(), q.User, q.Time, q.K, q.Exclude)
	}
	if err != nil {
		api.Fail(w, err, http.StatusServiceUnavailable)
		return
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// health is the coordinator's /healthz payload: the fleet, each shard
// with its breaker's state.
func (c *Coordinator) health() interface{} {
	resp := api.FleetHealth{Status: "ok", Shards: make([]api.ShardHealth, len(c.shards))}
	for i, sc := range c.shards {
		resp.Shards[i] = api.ShardHealth{BaseURL: sc.base, Items: sc.items, Breaker: sc.breaker.State().String()}
	}
	return resp
}

// ready feeds breaker state to the load balancer: ready while every
// shard's breaker admits traffic, degraded naming the unavailable item
// ranges once any breaker is open (partial answers only), unavailable
// when the whole fleet is down.
func (c *Coordinator) ready() api.Ready {
	resp := api.Ready{Status: "ready"}
	for _, sc := range c.shards {
		if sc.breaker.State() == client.BreakerOpen {
			resp.MissingItemRanges = append(resp.MissingItemRanges, sc.items)
			resp.Status = "degraded"
		}
	}
	if len(resp.MissingItemRanges) == len(c.shards) {
		resp.Status = "unavailable"
	}
	return resp
}
