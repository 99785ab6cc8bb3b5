// Command tcamserver serves a trained bundle over HTTP (see
// internal/server for the endpoint list) behind the process shell every
// serving binary shares (server.Shell, DESIGN.md §9): fixed HTTP
// timeouts, panic containment, bounded in-flight admission control,
// graceful drain on SIGINT/SIGTERM, hot bundle reload on SIGHUP or POST
// /admin/reload, and structured log records on stderr.
//
// Usage:
//
//	tcamserver -bundle digg.tcam [-addr :8080] [-drain-timeout 30s]
//	    [-max-inflight 1024] [-max-inflight-batch 64]
//	    [-cache-entries 0] [-precompute-hot 0]
//	    [-ingest-log dir] [-ingest-interval 1s]
//
// With -ingest-log set, a background updater tails the append-only
// event log in that directory, folds new users/items/intervals into
// the boot bundle (frozen global parameters, partial EM for new users)
// and republishes the serving snapshot; /healthz gains an "ingest"
// object with the log offset and staleness. What it publishes is a
// function of the boot bundle and the log alone — the fold-in has no
// flags — and because every publish is re-derived from the boot bundle,
// a hot reload is refused (409) while the updater is attached: restart
// on the new bundle instead.
//
// Signals:
//
//	SIGINT/SIGTERM  flip /readyz to 503, stop the listener, and drain
//	                in-flight requests for up to -drain-timeout
//	SIGHUP          reload the bundle from -bundle without dropping
//	                traffic (atomic snapshot swap; /healthz shows the
//	                bundle version); refused and logged with -ingest-log
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"tcam/internal/ingest"
	"tcam/internal/server"
)

func main() {
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("proc", "tcamserver")
	if err := run(os.Args[1:], logger, nil); err != nil {
		fmt.Fprintln(os.Stderr, "tcamserver:", err)
		os.Exit(1)
	}
}

// run serves until SIGINT/SIGTERM, then drains and returns. SIGHUP
// triggers a hot reload in between. onReady is the tests' hook: it fires
// once the listener is bound and signals are wired.
func run(args []string, logger *slog.Logger, onReady func(addr string)) error {
	fs := flag.NewFlagSet("tcamserver", flag.ContinueOnError)
	bundlePath := fs.String("bundle", "", "trained bundle path (required)")
	addr := fs.String("addr", ":8080", "listen address")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown deadline for in-flight requests")
	maxInflight := fs.Int("max-inflight", server.DefaultMaxInflight, "concurrent /recommend budget (<=0 unlimited)")
	maxInflightBatch := fs.Int("max-inflight-batch", server.DefaultMaxInflightBatch, "concurrent /recommend/batch budget (<=0 unlimited)")
	ingestLog := fs.String("ingest-log", "", "ingest log directory to tail for continuous fold-in (empty disables)")
	ingestInterval := fs.Duration("ingest-interval", server.DefaultUpdaterInterval, "ingest log poll period")
	cacheEntries := fs.Int("cache-entries", 0, "epoch-versioned result cache capacity in entries (0 disables)")
	precomputeHot := fs.Int("precompute-hot", 0, "hottest users precomputed into the cache at each publish (needs -cache-entries)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h printed the usage
		}
		return err
	}
	// WithCache ignores a non-positive size and WithHotPrecompute is
	// inert without a cache, so the flags pass straight through.
	srv, b, err := server.Open(*bundlePath, logger,
		server.WithLimits(*maxInflight, *maxInflightBatch),
		server.WithCache(*cacheEntries), server.WithHotPrecompute(*precomputeHot))
	if err != nil {
		return err
	}

	// Continuous ingestion: tail the log on a background goroutine,
	// stopped and joined before run returns.
	if *ingestLog != "" {
		lg, err := ingest.Open(*ingestLog)
		if err != nil {
			return err
		}
		up, err := server.NewUpdater(srv, lg, b, server.UpdaterConfig{Interval: *ingestInterval})
		if err != nil {
			return err
		}
		upCtx, stop := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			up.Run(upCtx)
		}()
		srv.Log.Info("tailing ingest log", "dir", *ingestLog, "every", *ingestInterval)
		defer func() {
			stop()
			<-done
		}()
	}

	srv.Log.Info("serving bundle", "kind", string(b.Kind()), "users", len(b.Users), "items", len(b.Items))
	return srv.Run(*addr, *drainTimeout, onReady)
}
