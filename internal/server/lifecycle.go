package server

// The process shell (DESIGN.md §9): what tcamserver, a shard and the
// coordinator are as processes — panic containment, the door wrapper,
// drain-aware readiness, the HTTP server and its signal loop, the logger
// — written once, plus the atomic hot reload of a Server's generation.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tcam/internal/api"
	"tcam/internal/faultinject"
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

// Shell is the process side of a serving binary. A Server and a
// shard.Coordinator each hold one and contribute only their doors, their
// /healthz payload and their readiness; everything an operator or a
// supervisor touches is here. Safe for concurrent use.
type Shell struct {
	// Log takes every record the process writes; never nil.
	Log *slog.Logger

	mux      *http.ServeMux
	draining atomic.Bool
	ready    func() api.Ready
	reload   func() (uint64, error)
}

// NewShell builds a shell serving /healthz and /readyz. health renders
// the holder's /healthz payload; ready its /readyz payload while it is
// not draining; reload is what SIGHUP runs, nil for a process with no
// bundle. A nil logger discards.
func NewShell(logger *slog.Logger, health func() interface{}, ready func() api.Ready, reload func() (uint64, error)) *Shell {
	sh := &Shell{Log: orDiscard(logger), mux: http.NewServeMux(), ready: ready, reload: reload}
	sh.Handle("/healthz", http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, health())
	})
	sh.Handle("/readyz", http.MethodGet, sh.handleReady)
	return sh
}

// discard is the logger of a process given none: every level the code
// writes is disabled, so a record is dropped before it is built.
var discard = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))

// orDiscard is where a logger becomes never-nil.
func orDiscard(l *slog.Logger) *slog.Logger {
	if l == nil {
		return discard
	}
	return l
}

// ServeHTTP implements http.Handler: the routed handler under panic
// containment.
func (sh *Shell) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	api.Contain(w, r, sh.mux, sh.Log)
}

// Handle mounts h at pattern for one HTTP method; anything else is 405.
func (sh *Shell) Handle(pattern, method string, h http.HandlerFunc) {
	sh.mux.HandleFunc(pattern, api.Only(method, h))
}

// Door mounts a query door: Handle plus what every door shares —
// admission against limit (429 + Retry-After over budget), the
// fault-injection site, and a cancelled-before-start check that answers
// 503 without touching an index or a fleet.
func (sh *Shell) Door(pattern, method, site string, limit *Limiter, serve http.HandlerFunc) {
	saturated := site[strings.IndexByte(site, '.')+1:] + " capacity saturated"
	sh.Handle(pattern, method, func(w http.ResponseWriter, r *http.Request) {
		if !limit.tryAcquire() {
			// Shed with a back-off hint instead of queueing unboundedly.
			w.Header().Set("Retry-After", "1")
			api.WriteError(w, http.StatusTooManyRequests, saturated)
			return
		}
		defer limit.release()
		faultinject.Fire(site)
		if r.Context().Err() != nil {
			api.WriteError(w, http.StatusServiceUnavailable, "request cancelled")
			return
		}
		serve(w, r)
	})
}

// Limiter bounds concurrent requests with a plain counter — no queue, by
// design: under overload the cheapest correct behavior is an immediate
// shed the client can back off from (429 + Retry-After), not an
// unbounded queue that converts overload into latency for everyone.
type Limiter struct {
	max int64
	cur atomic.Int64
}

// NewLimiter admits at most max requests at once; a non-positive max
// admits all.
func NewLimiter(max int) *Limiter { return &Limiter{max: int64(max)} }

// tryAcquire claims an in-flight slot, reporting false when the budget
// is exhausted. Pair with release. On the recommend fast path, so it
// must stay allocation-free.
//
//tcam:hotpath
func (l *Limiter) tryAcquire() bool {
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
func (l *Limiter) release() {
	if l.max > 0 {
		l.cur.Add(-1)
	}
}

// StartDrain flips the process to draining: /readyz starts answering 503
// so load balancers stop sending traffic, while /healthz stays 200 and
// in-flight (and even newly arriving) requests are still served. Run
// calls it before http.Server.Shutdown so the fleet deregisters the
// instance ahead of the listener closing.
func (sh *Shell) StartDrain() { sh.draining.Store(true) }

// handleReady is the readiness probe: the holder's view, overridden by
// "draining" once StartDrain ran, 200 exactly when "ready". Liveness
// (/healthz) deliberately stays 200 during drain — the process is
// healthy, it just no longer wants new traffic.
func (sh *Shell) handleReady(w http.ResponseWriter, r *http.Request) {
	resp, code := sh.ready(), http.StatusOK
	if sh.draining.Load() {
		resp.Status = "draining"
	}
	if resp.Status != "ready" {
		code = http.StatusServiceUnavailable
	}
	api.WriteJSON(w, code, resp)
}

// Run serves the shell on addr until SIGINT/SIGTERM, then flips
// readiness, stops the listener and drains in-flight requests for up to
// drain. SIGHUP in between runs the holder's reload. onReady, when
// non-nil, fires once the listener is bound.
func (sh *Shell) Run(addr string, drain time.Duration, onReady func(addr string)) error {
	// Signals are wired before the listener accepts anything, so a
	// supervisor can never fire one into the default handler.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	defer signal.Stop(sigs)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	sh.Log.Info("listening", "addr", ln.Addr().String())
	hs := &http.Server{
		Handler:           sh,
		ReadTimeout:       10 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		ErrorLog:          slog.NewLogLogger(sh.Log.Handler(), slog.LevelError),
	}
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
				if sh.reload == nil {
					sh.Log.Warn("SIGHUP ignored: no bundle to reload")
				} else if v, err := sh.reload(); err == nil { // a failure is the reload's to log
					sh.Log.Info("SIGHUP reload ok", "version", v)
				}
				continue
			}
			sh.Log.Info("draining", "signal", sig.String(), "deadline", drain)
			sh.StartDrain()
			ctx, cancel := context.WithTimeout(context.Background(), drain)
			err := hs.Shutdown(ctx)
			cancel()
			if serveResult := <-serveErr; !errors.Is(serveResult, http.ErrServerClosed) {
				return serveResult
			}
			if err != nil {
				return fmt.Errorf("drain deadline exceeded: %w", err)
			}
			sh.Log.Info("drained cleanly")
			return nil
		}
	}
}

// Server routes recommendation traffic onto the current serving
// snapshot, behind the Shell it holds. It is safe for concurrent use,
// including concurrent Reload.
type Server struct {
	*Shell
	snap       atomic.Pointer[Generation]
	recLimit   *Limiter
	batchLimit *Limiter

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

	reloadMu sync.Mutex                    // serializes Reload/ReloadFromSource
	source   func() (*index.Bundle, error) // WithReloader's; nil without one
}

// Option configures a Server at construction.
type Option func(*Server)

// WithLimits bounds concurrent in-flight requests: recommend for
// /recommend and /shard/query together, batch for /recommend/batch.
// Requests over budget are shed with 429 + Retry-After instead of
// queueing. A non-positive value means unlimited.
func WithLimits(recommend, batch int) Option {
	return func(s *Server) { s.recLimit, s.batchLimit = NewLimiter(recommend), NewLimiter(batch) }
}

// WithReloader installs the bundle source /admin/reload and
// ReloadFromSource pull from — typically a closure re-reading the
// bundle path the server booted with.
func WithReloader(load func() (*index.Bundle, error)) Option {
	return func(s *Server) { s.source = load }
}

// WithLogger directs the server's log records (recovered panics,
// reloads, publishes). Without it the server is silent.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.Log = orDiscard(l) }
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

// ready is the server's /readyz view: it can always serve the
// generation it holds.
func (s *Server) ready() api.Ready {
	return api.Ready{Status: "ready", Version: s.snapshot().version}
}

// Open loads the bundle at path and builds a Server over it whose
// reload source re-reads the same path — how both binaries boot.
func Open(path string, logger *slog.Logger, opts ...Option) (*Server, *index.Bundle, error) {
	if path == "" {
		return nil, nil, errors.New("server: a bundle path is required (-bundle)")
	}
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
	s.Log.Info("reloaded bundle", "version", sn.version, "users", len(b.Users), "items", len(b.Items))
	return sn, warm, nil
}

// Why a reload can be refused before its source is even read: 501 with
// no source, 409 under an updater, which re-derives every publish from
// the boot bundle and would silently replace the reloaded one.
var (
	errNoReloader      = api.Errorf(http.StatusNotImplemented, "server: no reload source configured")
	errUpdaterAttached = api.Errorf(http.StatusConflict, "server: reload refused: an updater is attached and its next publish would replace the bundle; restart on the new bundle instead")
)

// ReloadFromSource pulls a fresh bundle from the WithReloader source
// and swaps it in. SIGHUP and /admin/reload both land here; a refusal,
// load or validation failure is logged once and leaves the current
// snapshot serving untouched.
func (s *Server) ReloadFromSource() (version uint64, err error) {
	switch {
	case s.source == nil:
		err = errNoReloader
	case s.ingestStat.Load() != nil:
		err = errUpdaterAttached
	default:
		var b *index.Bundle
		if b, err = s.source(); err == nil {
			version, err = s.Reload(b)
		}
	}
	if err != nil {
		s.Log.Warn("reload failed, keeping current bundle", "err", err)
	}
	return version, err
}

// handleAdminReload hot-swaps the bundle from the configured source.
// POST-only: reloading is a mutation. Failures keep the old bundle and
// report 500 (501 with no source, 409 under an updater).
func (s *Server) handleAdminReload(w http.ResponseWriter, r *http.Request) {
	version, err := s.ReloadFromSource()
	if err != nil {
		api.Fail(w, err, http.StatusInternalServerError)
		return
	}
	api.WriteJSON(w, http.StatusOK, api.Ready{Status: "reloaded", Version: version})
}
