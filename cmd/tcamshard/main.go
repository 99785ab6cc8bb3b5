// Command tcamshard runs the sharded serving tier (DESIGN.md §14) in
// one of two modes:
//
//	shard        a tcamserver whose TA index covers only the item
//	             window -items; serves /shard/query for a coordinator
//	             plus the full single-node API over its window, from a
//	             result cache of -cache-entries answers when given
//	coordinator  the scatter-gather front: fans /recommend out to the
//	             fleet in -shards, merges the partial top-k lists, and
//	             degrades gracefully when shards are down; it caches
//	             nothing, so every answer is the shards' own generations'
//
// Usage:
//
//	tcamshard -mode shard -bundle digg.tcam -items 0-50000 [-addr :8081] [-cache-entries 16384]
//	tcamshard -mode coordinator -shards http://h1:8081=0-50000,http://h2:8081=50000-100000
//	tcamshard -mode coordinator -shards http://h1:8081,http://h2:8081 -catalog 100000
//
// The second coordinator form splits -catalog items across the listed
// shards with the same ceil-chunk partition the deploy scripts use for
// -items. Both modes run behind the process shell tcamserver runs
// behind (server.Shell, DESIGN.md §9): same timeouts, admission control
// on every query door, panic containment, /healthz, /readyz and drain.
// Signals: SIGINT/SIGTERM flip /readyz to 503, drain and exit; SIGHUP
// hot-reloads the bundle (shard mode only).
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"tcam/internal/client"
	"tcam/internal/server"
	"tcam/internal/shard"
)

func main() {
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("proc", "tcamshard")
	if err := run(os.Args[1:], logger, nil); err != nil {
		fmt.Fprintln(os.Stderr, "tcamshard:", err)
		os.Exit(1)
	}
}

// run serves until SIGINT/SIGTERM, then drains and returns. In shard
// mode SIGHUP hot-reloads the bundle in between. Either mode builds a
// server.Shell and runs it. onReady is the tests' hook: it fires once
// the listener is bound.
func run(args []string, logger *slog.Logger, onReady func(addr string)) error {
	fs := flag.NewFlagSet("tcamshard", flag.ContinueOnError)
	mode := fs.String("mode", "", `"shard" or "coordinator" (required)`)
	addr := fs.String("addr", ":8080", "listen address")
	bundlePath := fs.String("bundle", "", "trained bundle path (shard mode)")
	items := fs.String("items", "", `item window "lo-hi" this shard serves (shard mode)`)
	shards := fs.String("shards", "", `comma-separated shard base URLs, each optionally "url=lo-hi" (coordinator mode)`)
	catalog := fs.Int("catalog", 0, "catalog size to auto-partition across -shards without windows")
	shardTimeout := fs.Duration("shard-timeout", 2*time.Second, "per-shard deadline budget per request")
	breakerThreshold := fs.Int("breaker-threshold", 5, "consecutive failures that trip a shard's circuit breaker")
	breakerCooldown := fs.Duration("breaker-cooldown", time.Second, "open-breaker cooldown before a recovery probe")
	hedgeQuantile := fs.Float64("hedge-quantile", 0.9, "latency quantile after which a backup request fires")
	hedgeDefault := fs.Duration("hedge-default", 50*time.Millisecond, "hedge delay until the latency window warms up")
	seed := fs.Int64("seed", 1, "seed for breaker probe jitter")
	cacheEntries := fs.Int("cache-entries", 0, "result cache capacity in entries, epoch-versioned by the shard's generation (shard mode, 0 disables)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown deadline for in-flight requests")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h printed the usage
		}
		return err
	}

	var sh *server.Shell
	switch *mode {
	case "shard":
		// A shard is a tcamserver over a window: same Open, one option.
		lo, hi, err := parseWindow(*items)
		if err != nil {
			return err
		}
		s, b, err := server.Open(*bundlePath, logger, server.WithItemRange(lo, hi), server.WithCache(*cacheEntries))
		if err != nil {
			return err
		}
		s.Log.Info("shard mode", "kind", string(b.Kind()), "items", *items, "catalog", len(b.Items))
		sh = s.Shell
	case "coordinator":
		if *cacheEntries > 0 {
			return errors.New("-cache-entries belongs to shard mode: a coordinator caches nothing, each shard caches its own answers")
		}
		fleet, err := parseShards(*shards, *catalog)
		if err != nil {
			return err
		}
		c, err := shard.New(shard.Config{
			Shards:       fleet,
			ShardTimeout: *shardTimeout,
			Breaker: client.BreakerConfig{
				FailureThreshold: *breakerThreshold,
				OpenTimeout:      *breakerCooldown,
				Seed:             *seed,
			},
			Hedger: client.HedgerConfig{
				Quantile: *hedgeQuantile,
				Default:  *hedgeDefault,
			},
			Logger: logger,
		})
		if err != nil {
			return err
		}
		c.Log.Info("coordinator mode", "shards", len(fleet))
		sh = c.Shell
	default:
		return fmt.Errorf(`-mode must be "shard" or "coordinator"`)
	}
	return sh.Run(*addr, *drainTimeout, onReady)
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
