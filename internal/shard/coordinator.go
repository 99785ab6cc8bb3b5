package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
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
	// client shared by the fleet over one client.Transport, which runs a
	// leg's exchange on the leg's goroutine, with no Timeout of its own:
	// every leg's context carries the ShardTimeout deadline). Tests use
	// it to wire httpfault.Transport per shard.
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
// (DESIGN.md §16). A request's legs, and the backup attempts their
// hedges add, run on workers the coordinator owns, the last leg on the
// request's own goroutine; Close, which the shell's Run calls once
// drained, joins them. Safe for concurrent use.
type Coordinator struct {
	*server.Shell
	shards  []*shardConn
	timeout time.Duration
	workers workers
	gathers sync.Pool // *gather, each with one leg per shard
}

// shardConn is the coordinator's per-shard state: the parsed request,
// transport, breaker, and latency tracker.
type shardConn struct {
	base    string
	query   *http.Request // POST base/shard/query; an attempt is a copy with its own context and body
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
	shared := &http.Client{Transport: &client.Transport{}}
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
		base := strings.TrimRight(sc.BaseURL, "/")
		query, err := http.NewRequest(http.MethodPost, base+"/shard/query", nil)
		if err != nil {
			return nil, fmt.Errorf("shard: shard %d: %w", i, err)
		}
		if query.URL.Scheme != "http" {
			return nil, fmt.Errorf("shard: shard %d BaseURL %q is not http://", i, sc.BaseURL)
		}
		query.Header.Set("Content-Type", "application/json")
		c.shards = append(c.shards, &shardConn{
			base:    base,
			query:   query,
			items:   sc.Items,
			hc:      hc,
			breaker: client.NewBreaker(bc),
			hedger:  client.NewHedger(cfg.Hedger),
		})
	}
	c.gathers.New = func() interface{} { return newGather(c) }
	c.Shell = server.NewShell(cfg.Logger, c.health, c.ready, nil)
	c.OnStop(c.Close)
	c.Door("/recommend", http.MethodGet, "coordinator.recommend", server.NewLimiter(server.DefaultMaxInflight), c.handleRecommend)
	return c, nil
}

// Close joins the coordinator's workers and closes the legs' idle
// connections; the shell's Run calls it once drained. A request arriving
// later still runs, its legs one after another on its own goroutine and
// a backup on its hedge timer's, over connections of its own.
func (c *Coordinator) Close() {
	c.workers.close()
	for _, sc := range c.shards {
		sc.hc.CloseIdleConnections()
	}
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

// post runs one POST /shard/query attempt against the shard: a copy of
// the parsed request, with ctx and a reader of its own over body.
func (sc *shardConn) post(ctx context.Context, body *queryBody) (*api.ShardPartial, error) {
	req := sc.query.WithContext(ctx)
	req.Body, req.GetBody, req.ContentLength = body.open(), body.getBody, int64(len(body.b))
	var out api.ShardPartial
	if _, err := client.Attempt(sc.hc, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// queryBody is one request's /shard/query body, encoded once and read by
// every attempt of every leg. getBody is its open as the transport wants
// it, to resend a request that never reached the wire.
type queryBody struct {
	b       []byte
	getBody func() (io.ReadCloser, error)
}

func newQueryBody(q *api.Query) *queryBody {
	body := &queryBody{b: api.AppendQuery(nil, q)}
	body.getBody = func() (io.ReadCloser, error) { return body.open(), nil }
	return body
}

func (body *queryBody) open() io.ReadCloser { return io.NopCloser(bytes.NewReader(body.b)) }

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

// query runs l's scatter leg under the gather's context, which carries
// the leg's deadline budget: breaker admission, then the hedged request.
// A half-open breaker admits exactly one un-hedged probe. The log
// carries one record per breaker transition — the trip with the
// failure that caused it — and nothing per failed or skipped leg, so a
// dead shard costs a few records per cooldown, not one per request.
func (c *Coordinator) query(l *leg) (*api.ShardPartial, error) {
	sc := l.sc
	ok, probe := sc.breaker.Allow()
	if !ok {
		return nil, errBreakerOpen
	}
	delay := sc.hedger.Delay()
	if probe {
		delay = -1 // the recovery probe is a single request, never doubled
		c.Log.Info("shard breaker half-open: probing", "shard", sc.base)
	}
	start := time.Now()
	resp, err := l.hedge(delay)
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
	req := api.Query{User: user, Time: when, K: k, Exclude: exclude}
	if err := req.Normalize(); err != nil {
		return nil, err
	}
	faultinject.Fire("coordinator.scatter")
	// Every leg starts now, so one deadline is every leg's budget.
	sctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	g := c.gathers.Get().(*gather)
	defer c.gathers.Put(g)
	defer g.reset()
	g.ctx, g.body = sctx, newQueryBody(&req) // one body for every leg and hedge
	last := len(g.legs) - 1
	g.wg.Add(last)
	for i := range g.legs[:last] {
		c.workers.Run(&g.legs[i])
	}
	g.legs[last].Run()
	g.wg.Wait()
	var missing []Range
	for i := range g.legs {
		l := &g.legs[i]
		if l.part != nil {
			g.alive = append(g.alive, l.part)
			continue
		}
		if rejected := rejection(l.err); rejected != nil {
			return nil, rejected
		}
		missing = append(missing, l.sc.items)
	}
	if len(g.alive) == 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, ErrAllShardsDown
	}
	g.merged = mergeTopK(g.merged, g.alive, req.K)
	resp := &api.RecommendResponse{
		User:              user,
		Interval:          g.alive[0].Interval,
		Recommendations:   make([]api.Recommendation, len(g.merged)),
		Degraded:          len(missing) > 0,
		MissingItemRanges: missing,
	}
	for _, p := range g.alive {
		resp.ItemsExamined += p.ItemsExamined
	}
	for i, res := range g.merged {
		resp.Recommendations[i] = api.Recommendation{Item: res.Name, Score: res.Score}
	}
	return resp, nil
}

// gather is one Recommend's scatter state — a leg per shard and the
// merge's scratch — pooled, so a request allocates none of it.
type gather struct {
	ctx    context.Context // the request's, with the legs' deadline
	body   *queryBody
	wg     sync.WaitGroup // the legs on workers
	legs   []leg
	alive  []*api.ShardPartial
	merged []api.PartialResult
}

func newGather(c *Coordinator) *gather {
	g := &gather{legs: make([]leg, len(c.shards))}
	for i, sc := range c.shards {
		l := &g.legs[i]
		*l = leg{c: c, g: g, sc: sc, backupDone: make(chan struct{}, 1)}
		l.backup.l = l
	}
	return g
}

// reset drops what a request left behind, so the pool pins none of it.
func (g *gather) reset() {
	for i := range g.legs {
		l := &g.legs[i]
		l.part, l.err, l.ctx, l.cancel = nil, nil, nil, nil
		l.backup.part, l.backup.err = nil, nil
	}
	clear(g.alive)
	clear(g.merged)
	g.alive, g.merged = g.alive[:0], g.merged[:0]
	g.ctx, g.body = nil, nil
}

// leg is one shard's part of a gather: a job for a worker or, for the
// last shard, run by the request itself.
type leg struct {
	c    *Coordinator
	g    *gather
	sc   *shardConn
	part *api.ShardPartial
	err  error

	// The hedge: both attempts share ctx, which the first success
	// cancels; timer hands backup to a worker, whose Done signals
	// backupDone.
	ctx        context.Context
	cancel     context.CancelFunc
	timer      *time.Timer // made by the leg's first hedge, then Reset
	backup     backup
	backupDone chan struct{}
}

func (l *leg) Run()  { l.part, l.err = l.c.query(l) }
func (l *leg) Done() { l.g.wg.Done() }

// hedge runs the leg's request on the calling goroutine and, if it has
// not returned after delay, one backup attempt on the coordinator's
// workers — the tail-latency discipline of "The Tail at Scale". The
// first success wins and cancels the other attempt; a failure cancels
// nothing, so a fast failure waits for its sibling. A primary that
// returns before the backup fires returns at once, and a negative delay
// never hedges. hedge returns once every attempt it started has
// returned, the backup's worker parked again; when both fail, with the
// primary's error.
func (l *leg) hedge(delay time.Duration) (*api.ShardPartial, error) {
	l.ctx, l.cancel = context.WithCancel(l.g.ctx)
	defer l.cancel()
	if delay >= 0 {
		if l.timer == nil {
			l.timer = time.AfterFunc(delay, l.fire)
		} else {
			l.timer.Reset(delay)
		}
	}
	part, err := l.sc.post(l.ctx, l.g.body)
	if delay < 0 || l.timer.Stop() {
		return part, err // the backup never fired
	}
	if err == nil {
		l.cancel()
	}
	<-l.backupDone
	if err != nil && l.backup.err == nil {
		return l.backup.part, nil
	}
	return part, err
}

// fire hands the leg's backup attempt to a worker.
func (l *leg) fire() { l.c.workers.Run(&l.backup) }

// backup is a leg's second attempt, a job for a worker.
type backup struct {
	l    *leg
	part *api.ShardPartial
	err  error
}

func (b *backup) Run() {
	l := b.l
	if b.part, b.err = l.sc.post(l.ctx, l.g.body); b.err == nil {
		l.cancel() // the backup won: the primary ends
	}
}

func (b *backup) Done() { b.l.backupDone <- struct{}{} }

// ErrAllShardsDown is returned when no shard produced a partial result:
// there is nothing to serve, degraded or otherwise.
var ErrAllShardsDown = errors.New("shard: all shards unavailable")

// handleRecommend is the monolith's GET /recommend door in front of
// the fleet, behind the same Shell.Door: parse, scatter-gather, write.
func (c *Coordinator) handleRecommend(w http.ResponseWriter, r *http.Request) {
	var q api.Query
	err := q.ParseRawQuery(r.URL.RawQuery)
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
