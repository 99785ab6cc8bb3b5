// Command tcamserver serves a trained bundle over HTTP (see
// internal/server for the endpoint list) with a production lifecycle:
// hardened timeouts, graceful drain on SIGINT/SIGTERM, hot bundle
// reload on SIGHUP or POST /admin/reload, and bounded in-flight
// admission control.
//
// Usage:
//
//	tcamserver -bundle digg.tcam [-addr :8080]
//	    [-read-timeout 10s] [-write-timeout 30s] [-idle-timeout 2m]
//	    [-drain-timeout 30s] [-max-inflight 1024] [-max-inflight-batch 64]
//	    [-ingest-log dir] [-ingest-interval 1s] [-fold-iters 5]
//
// With -ingest-log set, a background updater tails the append-only
// event log in that directory, folds new users/items/intervals into
// the boot bundle (frozen global parameters, partial EM for new users)
// and republishes the serving snapshot; /healthz gains an "ingest"
// object with the log offset and staleness. Note that an ingest
// publish supersedes any bundle swapped in via SIGHUP — the updater
// always re-derives from the bundle the process booted with.
//
// Signals:
//
//	SIGINT/SIGTERM  flip /readyz to 503, stop the listener, and drain
//	                in-flight requests for up to -drain-timeout
//	SIGHUP          reload the bundle from -bundle without dropping
//	                traffic (atomic snapshot swap; /healthz shows the
//	                bundle version)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"tcam/internal/index"
	"tcam/internal/ingest"
	"tcam/internal/server"
)

// config carries everything run needs; flags populate it in main and
// tests populate it directly.
type config struct {
	bundlePath string
	addr       string

	readTimeout       time.Duration
	readHeaderTimeout time.Duration
	writeTimeout      time.Duration
	idleTimeout       time.Duration
	drainTimeout      time.Duration

	maxInflight      int
	maxInflightBatch int

	// Continuous ingestion (empty ingestLog disables it): the server
	// tails the ingest log directory, folds new users/items/intervals
	// into the frozen boot bundle, and republishes snapshots.
	ingestLog      string
	ingestInterval time.Duration
	foldIters      int

	// Result caching (DESIGN.md §16): cacheEntries sizes the
	// epoch-versioned top-k cache (0 disables), precomputeHot warms the
	// N hottest users' answers at every publish.
	cacheEntries  int
	precomputeHot int

	logger  *log.Logger
	onReady func(addr string) // test hook: fires once the listener is bound and signals are wired
}

func main() {
	cfg := config{logger: log.New(os.Stderr, "tcamserver ", log.LstdFlags)}
	flag.StringVar(&cfg.bundlePath, "bundle", "", "trained bundle path (required)")
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.DurationVar(&cfg.readTimeout, "read-timeout", 10*time.Second, "max time to read a full request")
	flag.DurationVar(&cfg.readHeaderTimeout, "read-header-timeout", 5*time.Second, "max time to read request headers")
	flag.DurationVar(&cfg.writeTimeout, "write-timeout", 30*time.Second, "max time to write a response")
	flag.DurationVar(&cfg.idleTimeout, "idle-timeout", 2*time.Minute, "keep-alive idle connection timeout")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "graceful shutdown deadline for in-flight requests")
	flag.IntVar(&cfg.maxInflight, "max-inflight", server.DefaultMaxInflight, "concurrent /recommend budget (<=0 unlimited)")
	flag.IntVar(&cfg.maxInflightBatch, "max-inflight-batch", server.DefaultMaxInflightBatch, "concurrent /recommend/batch budget (<=0 unlimited)")
	flag.StringVar(&cfg.ingestLog, "ingest-log", "", "ingest log directory to tail for continuous fold-in (empty disables)")
	flag.DurationVar(&cfg.ingestInterval, "ingest-interval", server.DefaultUpdaterInterval, "ingest log poll period")
	flag.IntVar(&cfg.foldIters, "fold-iters", 0, "partial-EM rounds per fold-in (0 = default)")
	flag.IntVar(&cfg.cacheEntries, "cache-entries", 0, "epoch-versioned result cache capacity in entries (0 disables)")
	flag.IntVar(&cfg.precomputeHot, "precompute-hot", 0, "hottest users precomputed into the cache at each publish (needs -cache-entries)")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "tcamserver:", err)
		os.Exit(1)
	}
}

// run serves until SIGINT/SIGTERM, then drains and returns. SIGHUP
// triggers a hot reload in between.
func run(cfg config) error {
	srv, b, err := buildServer(cfg)
	if err != nil {
		return err
	}

	// Continuous ingestion: tail the log on a background goroutine,
	// stopped and joined before run returns.
	if cfg.ingestLog != "" {
		lg, err := ingest.Open(cfg.ingestLog)
		if err != nil {
			return err
		}
		advCfg := index.DefaultAdvanceConfig()
		if cfg.foldIters > 0 {
			advCfg.FoldIters = cfg.foldIters
		}
		up, err := server.NewUpdater(srv, lg, b, server.UpdaterConfig{
			Interval: cfg.ingestInterval,
			Advance:  advCfg,
		})
		if err != nil {
			return err
		}
		upCtx, stop := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			up.Run(upCtx)
		}()
		cfg.logf("tailing ingest log %s every %s", cfg.ingestLog, cfg.ingestInterval)
		defer func() {
			stop()
			<-done
		}()
	}

	httpSrv := &http.Server{
		Handler:           srv,
		ReadTimeout:       cfg.readTimeout,
		ReadHeaderTimeout: cfg.readHeaderTimeout,
		WriteTimeout:      cfg.writeTimeout,
		IdleTimeout:       cfg.idleTimeout,
		ErrorLog:          cfg.logger,
	}

	cfg.logf("serving %s bundle (%d users, %d items)", b.Kind(), len(b.Users), len(b.Items))
	return server.Run(httpSrv, cfg.addr, srv, cfg.drainTimeout, cfg.onReady)
}

func (cfg config) logf(format string, args ...interface{}) {
	if cfg.logger != nil {
		cfg.logger.Printf(format, args...)
	}
}

// buildServer loads the bundle and constructs the handler with the
// lifecycle layer wired: in-flight limits, a reloader re-reading
// -bundle, and the process logger. Split from run so tests can
// exercise everything short of listening.
func buildServer(cfg config) (*server.Server, *index.Bundle, error) {
	if cfg.bundlePath == "" {
		return nil, nil, fmt.Errorf("-bundle is required")
	}
	// WithCache ignores a non-positive size and WithHotPrecompute is
	// inert without a cache, so the flags pass straight through.
	return server.Open(cfg.bundlePath, cfg.logger,
		server.WithLimits(cfg.maxInflight, cfg.maxInflightBatch),
		server.WithCache(cfg.cacheEntries), server.WithHotPrecompute(cfg.precomputeHot))
}
