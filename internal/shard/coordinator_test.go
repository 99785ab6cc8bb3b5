package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tcam/internal/api"
	"tcam/internal/client"
	"tcam/internal/faultinject"
	"tcam/internal/faultinject/httpfault"
	"tcam/internal/index"
	"tcam/internal/server"
	"tcam/internal/testfixture"
)

// fleet is a coordinator in front of n live shard servers, with
// per-shard request counters and faultinject transports on sites
// "shard<i>.delay" / "shard<i>.conn" / "shard<i>.torn".
type fleet struct {
	c        *Coordinator
	bundle   *index.Bundle
	ranges   []Range
	counters []*atomic.Int64
	servers  []*server.Server // the shard servers, for reload-driven epoch tests
}

// newFleet spins n shard servers over Partition(12, n). mut edits the
// coordinator config before New; wrap interposes per-shard middleware
// (counters are applied outermost regardless).
func newFleet(tb testing.TB, n int, mut func(*Config), wrap func(i int, h http.Handler) http.Handler) *fleet {
	tb.Helper()
	tb.Cleanup(faultinject.Reset)
	bundle := testfixture.Serving(tb)
	f := &fleet{bundle: bundle, ranges: Partition(len(bundle.Items), n)}
	cfg := Config{
		ShardTimeout: 5 * time.Second,
		// Defaults that keep breakers and hedges out of the way unless a
		// test opts in: a huge trip threshold and a cold hedger whose
		// window never warms up.
		Breaker: client.BreakerConfig{FailureThreshold: 1 << 20},
		Hedger:  client.HedgerConfig{Default: 10 * time.Second, Window: 1 << 10, MinSamples: 1 << 10},
	}
	for i, r := range f.ranges {
		srv, err := server.New(bundle, server.WithItemRange(r.Lo, r.Hi))
		if err != nil {
			tb.Fatal(err)
		}
		f.servers = append(f.servers, srv)
		var h http.Handler = srv
		if wrap != nil {
			h = wrap(i, h)
		}
		counter := &atomic.Int64{}
		f.counters = append(f.counters, counter)
		inner := h
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			counter.Add(1)
			inner.ServeHTTP(w, r)
		}))
		tb.Cleanup(ts.Close)
		cfg.Shards = append(cfg.Shards, ShardConfig{
			BaseURL: ts.URL,
			Items:   r,
			HTTPClient: &http.Client{
				Transport: &httpfault.Transport{Site: fmt.Sprintf("shard%d", i)},
				Timeout:   30 * time.Second,
			},
		})
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	f.c = c
	return f
}

// expect computes the reference answer on a monolithic index: the top-k
// over the full catalog minus excluded names and dead shard windows.
func expect(bundle *index.Bundle, user string, when int64, k int, excludeNames []string, dead []Range) []api.Recommendation {
	itemIdx := make(map[string]int, len(bundle.Items))
	for v, name := range bundle.Items {
		itemIdx[name] = v
	}
	banned := make(map[int]bool)
	for _, name := range excludeNames {
		if v, ok := itemIdx[name]; ok {
			banned[v] = true
		}
	}
	exclude := func(v int) bool {
		if banned[v] {
			return true
		}
		for _, r := range dead {
			if v >= r.Lo && v < r.Hi {
				return true
			}
		}
		return false
	}
	var u int
	for i, name := range bundle.Users {
		if name == user {
			u = i
		}
	}
	if k == 0 {
		k = 10
	}
	ix := bundle.BuildIndex()
	t := bundle.Grid.IntervalOf(when)
	results, _ := ix.Query(bundle.Scorer(), u, t, k, exclude)
	out := make([]api.Recommendation, 0, len(results))
	for _, res := range results {
		out = append(out, api.Recommendation{Item: bundle.Items[res.Item], Score: res.Score})
	}
	return out
}

func sameRecs(a, b []api.Recommendation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Item != b[i].Item || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

// The tentpole invariant: for 1, 2, and 4 shards the coordinator's
// /recommend is bit-identical — items, order, and float64 scores —
// to a monolithic tcamserver's, through real HTTP on both sides.
func TestCoordinatorBitIdenticalToMonolith(t *testing.T) {
	bundle := testfixture.Serving(t)
	mono, err := server.New(bundle)
	if err != nil {
		t.Fatal(err)
	}
	monoTS := httptest.NewServer(mono)
	defer monoTS.Close()

	fetch := func(base, path string) (int, api.RecommendResponse) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out api.RecommendResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards-%d", n), func(t *testing.T) {
			f := newFleet(t, n, nil, nil)
			coordTS := httptest.NewServer(f.c)
			defer coordTS.Close()
			for u := 0; u < 6; u++ {
				for _, when := range []int64{100, 105, 115, 125} {
					for _, path := range []string{
						fmt.Sprintf("/recommend?user=user-%d&time=%d&k=5", u, when),
						fmt.Sprintf("/recommend?user=user-%d&time=%d", u, when),
						fmt.Sprintf("/recommend?user=user-%d&time=%d&k=12&exclude=item-0,item-7", u, when),
						// Escaped once by the caller, decoded once by the door.
						fmt.Sprintf("/recommend?user=user-%d&time=%d&k=12&exclude=c%%2B%%2B,100%%2541", u, when),
					} {
						wantCode, want := fetch(monoTS.URL, path)
						gotCode, got := fetch(coordTS.URL, path)
						if gotCode != wantCode || gotCode != http.StatusOK {
							t.Fatalf("%s: status %d vs monolithic %d", path, gotCode, wantCode)
						}
						if got.Degraded || len(got.MissingItemRanges) != 0 {
							t.Fatalf("%s: degraded with all shards up", path)
						}
						if got.Interval != want.Interval || !sameRecs(got.Recommendations, want.Recommendations) {
							t.Fatalf("%s: merged %+v != monolithic %+v", path, got, want)
						}
					}
				}
			}
		})
	}
}

// A shard crashing mid-scatter degrades the answer instead of failing
// it: 200, Degraded, the dead shard's window reported missing, and the
// surviving merge exact.
func TestCoordinatorShardCrashDegrades(t *testing.T) {
	f := newFleet(t, 2, nil, nil)
	faultinject.SetErr("shard1.conn", faultinject.ErrorAlways(faultinject.ErrInjectedConn))
	resp, err := f.c.Recommend(context.Background(), "user-2", 115, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatal("response not marked degraded with a shard down")
	}
	if len(resp.MissingItemRanges) != 1 || resp.MissingItemRanges[0] != f.ranges[1] {
		t.Fatalf("missing ranges = %v, want [%v]", resp.MissingItemRanges, f.ranges[1])
	}
	want := expect(f.bundle, "user-2", 115, 5, nil, []Range{f.ranges[1]})
	if !sameRecs(resp.Recommendations, want) {
		t.Fatalf("degraded merge %+v != surviving-window reference %+v", resp.Recommendations, want)
	}

	// Recovery: clear the fault and the same query is exact again.
	faultinject.Clear("shard1.conn")
	resp, err = f.c.Recommend(context.Background(), "user-2", 115, 5, nil)
	if err != nil || resp.Degraded {
		t.Fatalf("after recovery: err=%v degraded=%v", err, resp != nil && resp.Degraded)
	}
}

func TestCoordinatorAllShardsDown(t *testing.T) {
	f := newFleet(t, 2, nil, nil)
	faultinject.SetErr("shard0.conn", faultinject.ErrorAlways(faultinject.ErrInjectedConn))
	faultinject.SetErr("shard1.conn", faultinject.ErrorAlways(faultinject.ErrInjectedConn))
	if _, err := f.c.Recommend(context.Background(), "user-0", 100, 5, nil); !errors.Is(err, ErrAllShardsDown) {
		t.Fatalf("err = %v, want ErrAllShardsDown", err)
	}
	ts := httptest.NewServer(f.c)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/recommend?user=user-0&time=100")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 when the whole fleet is down", resp.StatusCode)
	}
}

// A torn response body (headers delivered, body cut off) is a shard
// failure like any other: degraded, not an error or a hang.
func TestCoordinatorTornResponseDegrades(t *testing.T) {
	f := newFleet(t, 2, nil, nil)
	faultinject.SetErr("shard0.torn", faultinject.ErrorAlways(faultinject.ErrInjectedTorn))
	resp, err := f.c.Recommend(context.Background(), "user-1", 105, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || len(resp.MissingItemRanges) != 1 || resp.MissingItemRanges[0] != f.ranges[0] {
		t.Fatalf("torn shard not reported missing: %+v", resp)
	}
}

// A request the shards reject is the caller's fault, not the fleet's:
// an unknown user (404), an out-of-range k from a Go caller (caught
// before the scatter) and an exclude list whose JSON re-encoding
// overflows the shards' body cap (413) all propagate with their own
// status, and however many arrive, no breaker counts them and /readyz
// stays 200.
func TestCoordinatorCallerErrorsNeverTripBreakers(t *testing.T) {
	f := newFleet(t, 2, func(cfg *Config) {
		cfg.Breaker = client.BreakerConfig{FailureThreshold: 3}
	}, nil)
	huge := "&exclude=" + strings.Repeat("item-0,", 200_000) // > 1 MiB as a JSON array
	for i := 0; i < 10; i++ {
		if _, err := f.c.Recommend(context.Background(), "user-0", 100, 5000, nil); !isStatus(err, http.StatusBadRequest) {
			t.Fatalf("k=5000 from Go: err = %v, want a 400 api.Error", err)
		}
		for path, want := range map[string]int{
			"/recommend?user=nobody&time=100":        http.StatusNotFound,
			"/recommend?user=user-0&time=100&k=1001": http.StatusBadRequest,
			"/recommend?user=user-0&time=100" + huge: http.StatusRequestEntityTooLarge,
		} {
			rec := httptest.NewRecorder()
			f.c.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != want {
				t.Fatalf("%.60s: status %d, want %d: %.200s", path, rec.Code, want, rec.Body.String())
			}
		}
	}
	for i, sc := range f.c.shards {
		if sc.breaker.State() != client.BreakerClosed {
			t.Errorf("shard %d breaker = %v after caller errors, want closed", i, sc.breaker.State())
		}
	}
	if code, ready := readyStatus(t, f.c); code != http.StatusOK || ready.Status != "ready" {
		t.Fatalf("/readyz = %d %+v, want 200 ready", code, ready)
	}
	// The fleet still answers.
	if resp, err := f.c.Recommend(context.Background(), "user-0", 100, 5, nil); err != nil || resp.Degraded {
		t.Fatalf("healthy query after caller errors: %+v, %v", resp, err)
	}
}

// isStatus reports whether err is an *api.Error with the given status.
func isStatus(err error, status int) bool {
	var e *api.Error
	return errors.As(err, &e) && e.Status == status
}

// fakeClock drives breaker time by hand.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func readyStatus(t *testing.T, c *Coordinator) (int, api.Ready) {
	t.Helper()
	rec := httptest.NewRecorder()
	c.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	var out api.Ready
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return rec.Code, out
}

// The breaker lifecycle end to end: failures trip it, an open breaker
// short-circuits scatter legs (no request reaches the shard) and turns
// /readyz degraded, the cooldown admits one probe, and a successful
// probe closes it again.
func TestCoordinatorBreakerTripAndRecover(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	f := newFleet(t, 2, func(cfg *Config) {
		cfg.Breaker = client.BreakerConfig{
			FailureThreshold: 2,
			OpenTimeout:      time.Second,
			JitterFrac:       -1, // exact 1s cooldown
			Now:              clock.Now,
		}
	}, nil)
	faultinject.SetErr("shard0.conn", faultinject.ErrorAlways(faultinject.ErrInjectedConn))

	ask := func() *api.RecommendResponse {
		t.Helper()
		resp, err := f.c.Recommend(context.Background(), "user-3", 115, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Two failures trip the breaker.
	for i := 0; i < 2; i++ {
		if resp := ask(); !resp.Degraded {
			t.Fatalf("request %d not degraded with shard0 down", i)
		}
	}
	if st := f.c.shards[0].breaker.State(); st != client.BreakerOpen {
		t.Fatalf("breaker = %v after %d failures, want open", st, 2)
	}
	if code, ready := readyStatus(t, f.c); code != http.StatusServiceUnavailable || ready.Status != "degraded" {
		t.Fatalf("/readyz = %d %+v, want 503 degraded", code, ready)
	}

	// Open breaker: the scatter leg is skipped entirely — the shard sees
	// no request — and the fault being fixed changes nothing until the
	// cooldown elapses.
	faultinject.Clear("shard0.conn")
	before := f.counters[0].Load()
	if resp := ask(); !resp.Degraded {
		t.Fatal("open breaker should keep shard0's range missing")
	}
	if got := f.counters[0].Load(); got != before {
		t.Fatalf("open breaker let %d requests through", got-before)
	}

	// Cooldown elapses: one probe goes through, succeeds, and the fleet
	// is whole again.
	clock.Advance(1100 * time.Millisecond)
	if resp := ask(); resp.Degraded {
		t.Fatal("successful probe should yield a full answer")
	}
	if st := f.c.shards[0].breaker.State(); st != client.BreakerClosed {
		t.Fatalf("breaker = %v after successful probe, want closed", st)
	}
	if code, ready := readyStatus(t, f.c); code != http.StatusOK || ready.Status != "ready" {
		t.Fatalf("/readyz = %d %+v, want 200 ready", code, ready)
	}
	if f.counters[0].Load() != before+1 {
		t.Fatalf("probe made %d requests, want 1", f.counters[0].Load()-before)
	}
}

// countingHandler counts the log records that mention one shard, by
// message.
type countingHandler struct {
	shard string
	mu    sync.Mutex
	byMsg map[string]int
}

func (h *countingHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *countingHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *countingHandler) WithGroup(string) slog.Handler            { return h }
func (h *countingHandler) Handle(_ context.Context, r slog.Record) error {
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "shard" && a.Value.String() == h.shard {
			h.mu.Lock()
			h.byMsg[r.Message]++
			h.mu.Unlock()
			return false
		}
		return true
	})
	return nil
}

// A dead shard must not cost a log record per request: 200 requests
// against a fleet whose shard 0 is down log its breaker's trip once —
// with the failure that caused it — and nothing for the legs the open
// breaker then skips; the recovery logs the probe and the close, once
// each.
func TestCoordinatorLogsBreakerTransitionsOnce(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	logs := &countingHandler{byMsg: map[string]int{}}
	f := newFleet(t, 2, func(cfg *Config) {
		cfg.Breaker = client.BreakerConfig{FailureThreshold: 3, OpenTimeout: time.Second, JitterFrac: -1, Now: clock.Now}
		cfg.Logger = slog.New(logs)
		logs.shard = cfg.Shards[0].BaseURL
	}, nil)
	faultinject.SetErr("shard0.conn", faultinject.ErrorAlways(faultinject.ErrInjectedConn))
	ask := func(degraded bool) {
		t.Helper()
		resp, err := f.c.Recommend(context.Background(), "user-3", 115, 5, nil)
		if err != nil || resp.Degraded != degraded {
			t.Fatalf("Recommend = %+v, %v; want degraded=%v", resp, err, degraded)
		}
	}
	for i := 0; i < 200; i++ {
		ask(true)
	}
	if got := fmt.Sprint(logs.byMsg); got != "map[shard breaker open:1]" {
		t.Fatalf("200 requests against a dead shard logged %s, want the trip once", got)
	}
	faultinject.Clear("shard0.conn")
	clock.Advance(1100 * time.Millisecond)
	ask(false)
	ask(false)
	want := "map[shard breaker closed:1 shard breaker half-open: probing:1 shard breaker open:1]"
	if got := fmt.Sprint(logs.byMsg); got != want {
		t.Fatalf("after recovery the log holds %s, want %s", got, want)
	}
}

// A straggling shard triggers the hedge: the backup request wins, the
// straggler's context is cancelled, and the answer is full-fidelity.
func TestCoordinatorHedgeWinsAndCancelsStraggler(t *testing.T) {
	var shard0Queries atomic.Int64
	stragglerCancelled := make(chan struct{})
	f := newFleet(t, 2, func(cfg *Config) {
		cfg.Hedger = client.HedgerConfig{Default: 2 * time.Millisecond, Window: 64, MinSamples: 64}
	}, func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/shard/query" && shard0Queries.Add(1) == 1 {
				// The straggler: never answers, returns only when the
				// coordinator hangs up on it. The body must be drained
				// first — the server only watches for the client closing
				// the connection once the request body has hit EOF.
				_, _ = io.Copy(io.Discard, r.Body)
				<-r.Context().Done()
				close(stragglerCancelled)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	resp, err := f.c.Recommend(context.Background(), "user-4", 125, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded {
		t.Fatalf("hedged answer degraded: %+v", resp)
	}
	want := expect(f.bundle, "user-4", 125, 5, nil, nil)
	if !sameRecs(resp.Recommendations, want) {
		t.Fatalf("hedged merge %+v != reference %+v", resp.Recommendations, want)
	}
	select {
	case <-stragglerCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("straggler request was never cancelled")
	}
	if got := shard0Queries.Load(); got != 2 {
		t.Fatalf("shard0 saw %d queries, want 2 (primary + hedge)", got)
	}
}

// The per-shard deadline budget: a black-holed shard costs at most
// ShardTimeout, after which its range is reported missing.
func TestCoordinatorShardTimeoutBudget(t *testing.T) {
	release := make(chan struct{})
	f := newFleet(t, 2, func(cfg *Config) {
		cfg.ShardTimeout = 50 * time.Millisecond
	}, nil)
	t.Cleanup(func() { close(release) })
	faultinject.Set("shard1.delay", faultinject.Blocks(nil, release))
	start := time.Now()
	resp, err := f.c.Recommend(context.Background(), "user-0", 100, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || len(resp.MissingItemRanges) != 1 || resp.MissingItemRanges[0] != f.ranges[1] {
		t.Fatalf("black-holed shard not reported missing: %+v", resp)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("request took %v, want roughly the 50ms shard budget", took)
	}
}

// Degraded merges still honor exclude sets — including excludes that
// point into the dead shard's window — and keep the exact tie-break
// order of the surviving windows.
func TestCoordinatorDegradedMergeRespectsExcludes(t *testing.T) {
	f := newFleet(t, 4, nil, nil)
	faultinject.SetErr("shard2.conn", faultinject.ErrorAlways(faultinject.ErrInjectedConn))
	exclude := []string{"item-1", "item-7", "item-10"} // item-7 lives in the dead [6,9) window
	resp, err := f.c.Recommend(context.Background(), "user-5", 115, 8, exclude)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || len(resp.MissingItemRanges) != 1 || resp.MissingItemRanges[0] != f.ranges[2] {
		t.Fatalf("missing ranges = %v, want [%v]", resp.MissingItemRanges, f.ranges[2])
	}
	for _, rec := range resp.Recommendations {
		for _, banned := range exclude {
			if rec.Item == banned {
				t.Fatalf("excluded item %q in degraded merge", banned)
			}
		}
	}
	want := expect(f.bundle, "user-5", 115, 8, exclude, []Range{f.ranges[2]})
	if !sameRecs(resp.Recommendations, want) {
		t.Fatalf("degraded merge %+v != reference %+v", resp.Recommendations, want)
	}
}

func TestCoordinatorHealthListsFleet(t *testing.T) {
	f := newFleet(t, 3, nil, nil)
	rec := httptest.NewRecorder()
	f.c.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var h api.FleetHealth
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if len(h.Shards) != 3 {
		t.Fatalf("%d shards in health, want 3", len(h.Shards))
	}
	for i, sh := range h.Shards {
		if sh.Items != f.ranges[i] || sh.Breaker != "closed" {
			t.Errorf("shard %d health = %+v", i, sh)
		}
	}
}

func TestPartition(t *testing.T) {
	cases := []struct {
		n, shards int
		want      []Range
	}{
		{12, 1, []Range{{Lo: 0, Hi: 12}}},
		{12, 2, []Range{{Lo: 0, Hi: 6}, {Lo: 6, Hi: 12}}},
		{12, 4, []Range{{Lo: 0, Hi: 3}, {Lo: 3, Hi: 6}, {Lo: 6, Hi: 9}, {Lo: 9, Hi: 12}}},
		{10, 4, []Range{{Lo: 0, Hi: 3}, {Lo: 3, Hi: 6}, {Lo: 6, Hi: 9}, {Lo: 9, Hi: 10}}},
		{3, 5, []Range{{Lo: 0, Hi: 1}, {Lo: 1, Hi: 2}, {Lo: 2, Hi: 3}}},
		{0, 3, nil},
		{5, 0, []Range{{Lo: 0, Hi: 5}}},
	}
	for _, tc := range cases {
		got := Partition(tc.n, tc.shards)
		if len(got) != len(tc.want) {
			t.Errorf("Partition(%d,%d) = %v, want %v", tc.n, tc.shards, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("Partition(%d,%d)[%d] = %v, want %v", tc.n, tc.shards, i, got[i], tc.want[i])
			}
		}
	}
	// Every partition tiles [0, n) exactly.
	for n := 1; n <= 40; n++ {
		for shards := 1; shards <= 8; shards++ {
			ranges := Partition(n, shards)
			at := 0
			for _, r := range ranges {
				if r.Lo != at || r.Hi <= r.Lo {
					t.Fatalf("Partition(%d,%d) = %v does not tile", n, shards, ranges)
				}
				at = r.Hi
			}
			if at != n {
				t.Fatalf("Partition(%d,%d) = %v stops at %d", n, shards, ranges, at)
			}
		}
	}
}

func TestNewRejectsBadFleets(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted an empty fleet")
	}
	if _, err := New(Config{Shards: []ShardConfig{{BaseURL: "", Items: Range{Lo: 0, Hi: 5}}}}); err == nil {
		t.Error("New accepted a shard without a BaseURL")
	}
	if _, err := New(Config{Shards: []ShardConfig{{BaseURL: "http://a", Items: Range{Lo: 3, Hi: 3}}}}); err == nil {
		t.Error("New accepted an empty item range")
	}
	if _, err := New(Config{Shards: []ShardConfig{
		{BaseURL: "http://a", Items: Range{Lo: 0, Hi: 6}},
		{BaseURL: "http://b", Items: Range{Lo: 4, Hi: 10}},
	}}); err == nil {
		t.Error("New accepted overlapping item ranges")
	}
}

func TestFleetConfigs(t *testing.T) {
	cfgs := FleetConfigs(10, []string{"http://a", "http://b", "http://c"})
	if len(cfgs) != 3 {
		t.Fatalf("%d configs, want 3", len(cfgs))
	}
	want := Partition(10, 3)
	for i, cfg := range cfgs {
		if cfg.Items != want[i] {
			t.Errorf("config %d items = %v, want %v", i, cfg.Items, want[i])
		}
	}
}
