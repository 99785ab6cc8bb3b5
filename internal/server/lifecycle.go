package server

// Lifecycle and fault-tolerance layer (DESIGN.md §9): panic recovery,
// bounded in-flight admission control, drain-aware readiness, and
// atomic hot reload of the serving snapshot.

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tcam/internal/api"
	"tcam/internal/index"
	"tcam/internal/rescache"
)

// Default per-endpoint in-flight budgets. The single-query endpoint is
// microseconds of TA work, so its budget is mostly a safety valve; a
// batch pins every CPU for its whole duration, so its budget is small.
const (
	DefaultMaxInflight      = 1024
	DefaultMaxInflightBatch = 64
)

// Server routes recommendation traffic onto the current serving
// snapshot. It is safe for concurrent use, including concurrent
// Reload.
type Server struct {
	snap       atomic.Pointer[Generation]
	draining   atomic.Bool
	recLimit   inflightLimiter
	batchLimit inflightLimiter

	// itemLo/itemHi is the shard item window; both zero means the full
	// catalog (monolithic mode). Immutable after New, so reloads keep
	// serving the same partition.
	itemLo, itemHi int

	// ingestStat is the attached Updater's view for /healthz; nil until
	// an updater attaches (updater.go).
	ingestStat atomic.Pointer[ingestStatus]

	// cache is the epoch-versioned result cache (cache.go); nil unless
	// WithCache enabled it. hot tracks request frequency per user for
	// publish-time precomputation; it is non-nil exactly when cache is.
	cache          *rescache.Cache[Answer]
	hot            *rescache.HotTracker
	precomputeHot  int           // hottest users warmed per publish
	hotPrecomputed atomic.Uint64 // users actually warmed by the latest publish

	reloadMu sync.Mutex // serializes Reload/ReloadFromSource
	reload   func() (*index.Bundle, error)
	logger   *log.Logger

	mux *http.ServeMux
}

// Option configures the lifecycle layer at construction.
type Option func(*Server)

// WithLimits bounds concurrent in-flight requests: recommend for
// /recommend and /shard/query together, batch for /recommend/batch.
// Requests over budget are shed with 429 + Retry-After instead of
// queueing. A non-positive value means unlimited.
func WithLimits(recommend, batch int) Option {
	return func(s *Server) {
		s.recLimit.max = int64(recommend)
		s.batchLimit.max = int64(batch)
	}
}

// WithReloader installs the bundle source /admin/reload and
// ReloadFromSource pull from — typically a closure re-reading the
// bundle path the server booted with.
func WithReloader(load func() (*index.Bundle, error)) Option {
	return func(s *Server) { s.reload = load }
}

// WithLogger directs lifecycle logging (recovered panics, reloads).
// Without it the server is silent.
func WithLogger(l *log.Logger) Option {
	return func(s *Server) { s.logger = l }
}

// WithItemRange puts the server in shard mode: the TA index covers only
// catalog items in [lo, hi), while vocabularies stay global so queries
// and responses speak global item names and indices. /shard/query
// serves the partial top-k a coordinator merges, /healthz reports the
// window, and hot reloads rebuild the same window. New rejects a window
// that is empty or outside the bundle's catalog.
func WithItemRange(lo, hi int) Option {
	return func(s *Server) {
		s.itemLo = lo
		s.itemHi = hi
	}
}

// validateWindow checks the configured shard window against a bundle's
// catalog. The zero window (monolithic mode) is always valid.
func (s *Server) validateWindow(b *index.Bundle) error {
	if s.itemLo == 0 && s.itemHi == 0 {
		return nil
	}
	if s.itemLo < 0 || s.itemHi <= s.itemLo || s.itemHi > len(b.Items) {
		return fmt.Errorf("server: item window [%d,%d) invalid for a %d-item catalog",
			s.itemLo, s.itemHi, len(b.Items))
	}
	return nil
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}

// ServeHTTP implements http.Handler: the routed handler under panic
// containment.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	api.Contain(w, r, s.mux, s.logger)
}

// inflightLimiter bounds concurrent requests with a plain counter — no
// queue, by design: under overload the cheapest correct behavior is an
// immediate shed the client can back off from (429 + Retry-After), not
// an unbounded queue that converts overload into latency for everyone.
type inflightLimiter struct {
	max int64
	cur atomic.Int64
}

// tryAcquire claims an in-flight slot, reporting false when the budget
// is exhausted. Pair with release. On the recommend fast path, so it
// must stay allocation-free.
//
//tcam:hotpath
func (l *inflightLimiter) tryAcquire() bool {
	if l.max <= 0 {
		return true
	}
	if l.cur.Add(1) > l.max {
		l.cur.Add(-1)
		return false
	}
	return true
}

// release returns a slot claimed by a successful tryAcquire.
//
//tcam:hotpath
func (l *inflightLimiter) release() {
	if l.max > 0 {
		l.cur.Add(-1)
	}
}

// StartDrain flips the server to draining: /readyz starts answering 503
// so load balancers stop sending traffic, while /healthz stays 200 and
// in-flight (and even newly arriving) requests are still served. Call
// it before http.Server.Shutdown so the fleet deregisters the instance
// ahead of the listener closing.
func (s *Server) StartDrain() { s.draining.Store(true) }

// statusResponse is the /readyz and /admin/reload payload.
type statusResponse struct {
	Status  string `json:"status"`
	Version uint64 `json:"version"`
}

// handleReady is the readiness probe: 200 while serving, 503 once
// draining. Liveness (/healthz) deliberately stays 200 during drain —
// the process is healthy, it just no longer wants new traffic.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	resp, code := statusResponse{Status: "ready", Version: s.snapshot().version}, http.StatusOK
	if s.draining.Load() {
		resp.Status, code = "draining", http.StatusServiceUnavailable
	}
	api.WriteJSON(w, code, resp)
}

// Open loads the bundle at path and builds a Server over it whose
// reload source re-reads the same path — how both binaries boot.
func Open(path string, logger *log.Logger, opts ...Option) (*Server, *index.Bundle, error) {
	b, err := index.Load(path)
	if err != nil {
		return nil, nil, err
	}
	opts = append(opts, WithLogger(logger),
		WithReloader(func() (*index.Bundle, error) { return index.Load(path) }))
	s, err := New(b, opts...)
	return s, b, err
}

// Reload atomically swaps in a new bundle: the TA index and
// vocabularies are rebuilt off to the side and published in one atomic
// pointer store, so queries in flight finish on the old snapshot and
// the next request sees the new one. Retraining therefore never
// requires downtime.
func (s *Server) Reload(b *index.Bundle) (uint64, error) {
	sn, _, err := s.publish(b)
	if err != nil {
		return 0, err
	}
	return sn.version, nil
}

// publish is Reload returning the generation it published and what
// warming it cost.
func (s *Server) publish(b *index.Bundle) (*Generation, warmStats, error) {
	if err := b.Validate(); err != nil {
		return nil, warmStats{}, err
	}
	if err := s.validateWindow(b); err != nil {
		return nil, warmStats{}, err // new catalog no longer covers this shard's window
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	sn := s.generation(b, s.snap.Load().version+1)
	// Warm the new epoch before it goes live: a request can only name
	// this version once the store below publishes it, so hot users find
	// their answers already cached on their first post-publish hit.
	warm := s.precompute(sn)
	s.snap.Store(sn)
	s.logf("reloaded bundle: version %d, %d users, %d items", sn.version, len(b.Users), len(b.Items))
	return sn, warm, nil
}

// ReloadFromSource pulls a fresh bundle from the WithReloader source
// and swaps it in. The SIGHUP handler and /admin/reload both land
// here; a load or validation failure leaves the current snapshot
// serving untouched.
func (s *Server) ReloadFromSource() (uint64, error) {
	if s.reload == nil {
		return 0, errNoReloader
	}
	b, err := s.reload()
	if err != nil {
		s.logf("reload failed, keeping current bundle: %v", err)
		return 0, err
	}
	return s.Reload(b)
}

// Run is the serve loop of tcamserver and tcamshard: it serves hs on
// addr until SIGINT/SIGTERM, then flips readiness, stops the listener
// and drains in-flight requests for up to drain. SIGHUP in between
// hot-reloads the bundle. srv is the Server behind hs.Handler — it gets
// StartDrain and the reloads — or nil for a coordinator, which has no
// bundle. onReady, when non-nil, fires once the listener is bound.
func Run(hs *http.Server, addr string, srv *Server, drain time.Duration, onReady func(addr string)) error {
	logf := log.Printf
	if hs.ErrorLog != nil {
		logf = hs.ErrorLog.Printf
	}
	// Signals are wired before the listener accepts anything, so a
	// supervisor can never fire one into the default handler.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	defer signal.Stop(sigs)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	logf("listening on %s", ln.Addr())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	if onReady != nil {
		onReady(ln.Addr().String())
	}
	for {
		select {
		case err := <-serveErr:
			return err // listener died without a shutdown signal
		case sig := <-sigs:
			if sig == syscall.SIGHUP {
				if srv == nil {
					logf("SIGHUP ignored: no bundle to reload")
				} else if v, err := srv.ReloadFromSource(); err != nil {
					logf("SIGHUP reload failed: %v", err)
				} else {
					logf("SIGHUP reload ok: bundle version %d", v)
				}
				continue
			}
			logf("%s: draining (deadline %s)", sig, drain)
			if srv != nil {
				srv.StartDrain()
			}
			ctx, cancel := context.WithTimeout(context.Background(), drain)
			err := hs.Shutdown(ctx)
			cancel()
			if serveResult := <-serveErr; !errors.Is(serveResult, http.ErrServerClosed) {
				return serveResult
			}
			if err != nil {
				return fmt.Errorf("drain deadline exceeded: %w", err)
			}
			logf("drained cleanly")
			return nil
		}
	}
}

// errNoReloader distinguishes "reload unsupported" (501) from a failed
// reload (500).
var errNoReloader = api.Errorf(http.StatusNotImplemented, "server: no reload source configured")

// handleAdminReload hot-swaps the bundle from the configured source.
// POST-only: reloading is a mutation. Failures keep the old bundle and
// report 500 (or 501 when no source is configured).
func (s *Server) handleAdminReload(w http.ResponseWriter, r *http.Request) {
	version, err := s.ReloadFromSource()
	if err != nil {
		api.Fail(w, err, http.StatusInternalServerError)
		return
	}
	api.WriteJSON(w, http.StatusOK, statusResponse{Status: "reloaded", Version: version})
}
