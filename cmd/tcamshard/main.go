// Command tcamshard runs the sharded serving tier (DESIGN.md §14) in
// one of two modes:
//
//	shard        a tcamserver whose TA index covers only the item
//	             window -items; serves /shard/query for a coordinator
//	             plus the full single-node API over its window
//	coordinator  the scatter-gather front: fans /recommend out to the
//	             fleet in -shards, merges the partial top-k lists, and
//	             degrades gracefully when shards are down
//
// Usage:
//
//	tcamshard -mode shard -bundle digg.tcam -items 0-50000 [-addr :8081]
//	tcamshard -mode coordinator -shards http://h1:8081=0-50000,http://h2:8081=50000-100000
//	tcamshard -mode coordinator -shards http://h1:8081,http://h2:8081 -catalog 100000
//
// The second coordinator form splits -catalog items across the listed
// shards with the same ceil-chunk partition the deploy scripts use for
// -items. Signals: SIGINT/SIGTERM drain and exit; SIGHUP hot-reloads
// the bundle (shard mode only).
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"tcam/internal/client"
	"tcam/internal/index"
	"tcam/internal/server"
	"tcam/internal/shard"
)

// config carries everything run needs; flags populate it in main and
// tests populate it directly.
type config struct {
	mode string
	addr string

	// shard mode
	bundlePath string
	items      string

	// coordinator mode
	shards           string
	catalog          int
	shardTimeout     time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration
	hedgeQuantile    float64
	hedgeDefault     time.Duration
	seed             int64
	cacheEntries     int

	drainTimeout time.Duration

	logger  *log.Logger
	onReady func(addr string) // test hook: fires once the listener is bound
}

func main() {
	cfg := config{logger: log.New(os.Stderr, "tcamshard ", log.LstdFlags)}
	flag.StringVar(&cfg.mode, "mode", "", `"shard" or "coordinator" (required)`)
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.StringVar(&cfg.bundlePath, "bundle", "", "trained bundle path (shard mode)")
	flag.StringVar(&cfg.items, "items", "", `item window "lo-hi" this shard serves (shard mode)`)
	flag.StringVar(&cfg.shards, "shards", "", `comma-separated shard base URLs, each optionally "url=lo-hi" (coordinator mode)`)
	flag.IntVar(&cfg.catalog, "catalog", 0, "catalog size to auto-partition across -shards without windows")
	flag.DurationVar(&cfg.shardTimeout, "shard-timeout", 2*time.Second, "per-shard deadline budget per request")
	flag.IntVar(&cfg.breakerThreshold, "breaker-threshold", 5, "consecutive failures that trip a shard's circuit breaker")
	flag.DurationVar(&cfg.breakerCooldown, "breaker-cooldown", time.Second, "open-breaker cooldown before a recovery probe")
	flag.Float64Var(&cfg.hedgeQuantile, "hedge-quantile", 0.9, "latency quantile after which a backup request fires")
	flag.DurationVar(&cfg.hedgeDefault, "hedge-default", 50*time.Millisecond, "hedge delay until the latency window warms up")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for breaker probe jitter")
	flag.IntVar(&cfg.cacheEntries, "cache-entries", 0, "merged-result cache capacity in entries, epoch-versioned by the observed fleet state (coordinator mode, 0 disables)")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "graceful shutdown deadline for in-flight requests")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "tcamshard:", err)
		os.Exit(1)
	}
}

// run serves until SIGINT/SIGTERM, then drains and returns. In shard
// mode SIGHUP hot-reloads the bundle in between.
func run(cfg config) error {
	var handler http.Handler
	var srv *server.Server // non-nil in shard mode: drain + reload surface
	switch cfg.mode {
	case "shard":
		s, b, err := buildShard(cfg)
		if err != nil {
			return err
		}
		cfg.logf("shard mode: %s bundle, items %s of %d", b.Kind(), cfg.items, len(b.Items))
		handler, srv = s, s
	case "coordinator":
		c, err := buildCoordinator(cfg)
		if err != nil {
			return err
		}
		cfg.logf("coordinator mode: %d shards", strings.Count(cfg.shards, ",")+1)
		handler = c
	default:
		return fmt.Errorf(`-mode must be "shard" or "coordinator"`)
	}

	httpSrv := &http.Server{
		Handler:           handler,
		ReadTimeout:       10 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		ErrorLog:          cfg.logger,
	}
	return server.Run(httpSrv, cfg.addr, srv, cfg.drainTimeout, cfg.onReady)
}

func (cfg config) logf(format string, args ...interface{}) {
	if cfg.logger != nil {
		cfg.logger.Printf(format, args...)
	}
}

// buildShard loads the bundle and constructs a shard-mode server over
// the -items window, with a reloader re-reading -bundle.
func buildShard(cfg config) (*server.Server, *index.Bundle, error) {
	if cfg.bundlePath == "" {
		return nil, nil, fmt.Errorf("-bundle is required in shard mode")
	}
	lo, hi, err := parseWindow(cfg.items)
	if err != nil {
		return nil, nil, err
	}
	return server.Open(cfg.bundlePath, cfg.logger, server.WithItemRange(lo, hi))
}

// buildCoordinator assembles the fleet from -shards (and -catalog for
// the window-less form) and wires the failure-discipline knobs.
func buildCoordinator(cfg config) (*shard.Coordinator, error) {
	shards, err := parseShards(cfg.shards, cfg.catalog)
	if err != nil {
		return nil, err
	}
	return shard.New(shard.Config{
		Shards:       shards,
		ShardTimeout: cfg.shardTimeout,
		Breaker: client.BreakerConfig{
			FailureThreshold: cfg.breakerThreshold,
			OpenTimeout:      cfg.breakerCooldown,
			Seed:             cfg.seed,
		},
		Hedger: client.HedgerConfig{
			Quantile: cfg.hedgeQuantile,
			Default:  cfg.hedgeDefault,
		},
		Logger:       cfg.logger,
		CacheEntries: cfg.cacheEntries,
	})
}

// parseWindow reads an "lo-hi" item window.
func parseWindow(s string) (lo, hi int, err error) {
	rawLo, rawHi, ok := strings.Cut(s, "-")
	if !ok {
		return 0, 0, fmt.Errorf(`-items must be "lo-hi", got %q`, s)
	}
	lo, err = strconv.Atoi(rawLo)
	if err != nil {
		return 0, 0, fmt.Errorf("bad item window %q: %v", s, err)
	}
	hi, err = strconv.Atoi(rawHi)
	if err != nil {
		return 0, 0, fmt.Errorf("bad item window %q: %v", s, err)
	}
	return lo, hi, nil
}

// parseShards turns the -shards spec into the coordinator's fleet.
// Either every entry carries an explicit "url=lo-hi" window, or none
// does and -catalog splits the item space across them.
func parseShards(spec string, catalog int) ([]shard.ShardConfig, error) {
	if spec == "" {
		return nil, fmt.Errorf("-shards is required in coordinator mode")
	}
	var bare []string
	var explicit []shard.ShardConfig
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		if url, window, ok := strings.Cut(entry, "="); ok {
			lo, hi, err := parseWindow(window)
			if err != nil {
				return nil, fmt.Errorf("shard %q: %v", entry, err)
			}
			explicit = append(explicit, shard.ShardConfig{BaseURL: url, Items: shard.Range{Lo: lo, Hi: hi}})
			continue
		}
		bare = append(bare, entry)
	}
	switch {
	case len(explicit) > 0 && len(bare) > 0:
		return nil, fmt.Errorf("-shards mixes windowed (url=lo-hi) and bare entries; use one form")
	case len(explicit) > 0:
		return explicit, nil
	case catalog <= 0:
		return nil, fmt.Errorf("-catalog is required when -shards entries carry no =lo-hi windows")
	default:
		return shard.FleetConfigs(catalog, bare), nil
	}
}
