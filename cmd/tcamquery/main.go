// Command tcamquery answers temporal top-k queries from the command
// line, printing the ranked items with scores. It reads either a local
// trained bundle or a running tcamserver instance.
//
// Usage:
//
//	tcamquery -bundle digg.tcam -user u00042 -time 37 [-k 10] [-exclude item1,item2]
//	tcamquery -bundle digg.tcam -users u00042,u00091,u00007 -time 37 [-k 10]
//	tcamquery -server http://localhost:8080 -user u00042 -time 37 [-k 10]
//	tcamquery -server http://localhost:8080 -users u00042,u00091 -time 37
//	tcamquery -server http://localhost:8080 -users @load.jsonl
//	tcamquery -server http://localhost:8080 -health [-json]
//
// With -health, no query runs: the server's /healthz summary is
// printed instead — snapshot version and, when the server tails an
// ingest log, the log offset, lag and staleness, so operators can see
// how far serving lags the event stream. Targets running a result
// cache additionally report hit/miss counters and the live epoch.
//
// With -users, all queries run as one batch: locally through the
// parallel serving path (pooled Threshold-Algorithm scratch per
// worker), remotely as a single /recommend/batch round trip. Remote
// calls retry shed (429) and unavailable (503) responses with jittered
// backoff, honoring the server's Retry-After hint. `-users @load.jsonl`
// reads the batch from a workload file written by `tcamgen -queries`
// instead — each line's own time/k/exclude win over the flags.
//
// When -server points at a shard coordinator (cmd/tcamshard) that is
// running degraded, the answer is still printed but flagged with the
// item ranges that were not considered; -json emits the raw response
// instead, with the degraded and missing_item_ranges fields intact.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tcam"
	"tcam/internal/api"
	"tcam/internal/client"
)

func main() {
	var (
		bundle  = flag.String("bundle", "", "trained bundle path (local mode)")
		server  = flag.String("server", "", "tcamserver base URL (remote mode, e.g. http://localhost:8080)")
		user    = flag.String("user", "", "user identifier")
		users   = flag.String("users", "", "comma-separated user identifiers, or @file naming a JSONL query workload (batch mode)")
		when    = flag.Int64("time", 0, "query time in dataset ticks")
		k       = flag.Int("k", 10, "number of recommendations")
		exclude = flag.String("exclude", "", "comma-separated item IDs to exclude")
		asJSON  = flag.Bool("json", false, "emit the raw server response as JSON (remote mode)")
		health  = flag.Bool("health", false, "print the server's /healthz summary (snapshot version, ingest lag, staleness) instead of querying")
	)
	flag.Parse()
	var err error
	switch {
	case *health:
		err = runHealth(os.Stdout, *server, *asJSON)
	case *server != "":
		err = runRemote(os.Stdout, *server, *user, *users, *when, *k, *exclude, *asJSON)
	case *users != "":
		err = runBatch(*bundle, *users, *when, *k, *exclude)
	default:
		err = run(*bundle, *user, *when, *k, *exclude)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcamquery:", err)
		os.Exit(1)
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

func run(bundlePath, user string, when int64, k int, exclude string) error {
	if bundlePath == "" || user == "" {
		return fmt.Errorf("-bundle and -user are required")
	}
	rec, err := tcam.LoadRecommender(bundlePath)
	if err != nil {
		return err
	}
	results, err := rec.RecommendExcluding(user, when, k, splitList(exclude))
	if err != nil {
		return err
	}
	lambda, err := rec.Lambda(user)
	if err != nil {
		return err
	}
	fmt.Printf("top-%d for %s at t=%d (interval %d, λu=%.3f):\n",
		k, user, when, rec.Grid().IntervalOf(when), lambda)
	for i, r := range results {
		fmt.Printf("%3d. %-40s %.6g\n", i+1, r.ItemID, r.Score)
	}
	return nil
}

func runBatch(bundlePath, users string, when int64, k int, exclude string) error {
	if bundlePath == "" {
		return fmt.Errorf("-bundle is required")
	}
	rec, err := tcam.LoadRecommender(bundlePath)
	if err != nil {
		return err
	}
	banned := splitList(exclude)
	var queries []tcam.BatchQuery
	if path, ok := workloadRef(users); ok {
		load, err := loadWorkload(path, when, k, banned)
		if err != nil {
			return err
		}
		queries = make([]tcam.BatchQuery, len(load))
		for i, q := range load {
			queries[i] = tcam.BatchQuery{UserID: q.User, When: q.Time, K: q.K, ExcludeIDs: q.Exclude}
		}
	} else {
		ids := strings.Split(users, ",")
		queries = make([]tcam.BatchQuery, len(ids))
		for i, id := range ids {
			queries[i] = tcam.BatchQuery{UserID: id, When: when, K: k, ExcludeIDs: banned}
		}
	}
	results, err := rec.RecommendBatch(queries)
	if err != nil {
		return err
	}
	for i, recs := range results {
		q := queries[i]
		fmt.Printf("top-%d for %s at t=%d (interval %d):\n",
			q.K, q.UserID, q.When, rec.Grid().IntervalOf(q.When))
		for j, r := range recs {
			fmt.Printf("%3d. %-40s %.6g\n", j+1, r.ItemID, r.Score)
		}
	}
	return nil
}

// runRemote asks a running tcamserver (or shard coordinator) instead
// of loading a bundle.
func runRemote(w io.Writer, baseURL, user, users string, when int64, k int, exclude string, asJSON bool) error {
	if user == "" && users == "" {
		return fmt.Errorf("-user or -users is required with -server")
	}
	c, err := client.New(client.Config{BaseURL: baseURL})
	if err != nil {
		return err
	}
	ctx := context.Background()
	banned := splitList(exclude)
	if users == "" {
		res, err := c.Recommend(ctx, user, when, k, banned)
		if err != nil {
			return err
		}
		if asJSON {
			return emitJSON(w, res)
		}
		printRemote(w, res, when, k)
		return nil
	}
	var queries []api.Query
	if path, ok := workloadRef(users); ok {
		if queries, err = loadWorkload(path, when, k, banned); err != nil {
			return err
		}
	} else {
		ids := strings.Split(users, ",")
		queries = make([]api.Query, len(ids))
		for i, id := range ids {
			queries[i] = api.Query{User: id, Time: when, K: k, Exclude: banned}
		}
	}
	batch, err := c.RecommendBatch(ctx, queries)
	if err != nil {
		return err
	}
	if asJSON {
		return emitJSON(w, batch)
	}
	for i := range batch.Results {
		q := queries[i]
		printRemote(w, &batch.Results[i], q.Time, q.K)
	}
	if batch.Truncated {
		_, _ = fmt.Fprintf(w, "(server truncated the batch: %d of %d queries answered)\n",
			len(batch.Results), len(queries))
	}
	return nil
}

// runHealth prints the serving state an operator cares about: which
// snapshot generation is live and — when the server tails an ingest log
// — how far it lags the durable event stream.
func runHealth(w io.Writer, baseURL string, asJSON bool) error {
	if baseURL == "" {
		return fmt.Errorf("-health requires -server")
	}
	c, err := client.New(client.Config{BaseURL: baseURL})
	if err != nil {
		return err
	}
	h, err := c.Health(context.Background())
	if err != nil {
		return err
	}
	if asJSON {
		return emitJSON(w, h)
	}
	_, _ = fmt.Fprintf(w, "%s: %s %s — %d users, %d items, %d intervals, %d topics\n",
		baseURL, h.Status, h.ModelKind, h.Users, h.Items, h.Intervals, h.Topics)
	_, _ = fmt.Fprintf(w, "snapshot version %d", h.Version)
	if h.Draining {
		_, _ = fmt.Fprint(w, " (draining)")
	}
	_, _ = fmt.Fprintln(w)
	if c := h.Cache; c != nil {
		total := c.Hits + c.Misses
		rate := 0.0
		if total > 0 {
			rate = float64(c.Hits) / float64(total)
		}
		_, _ = fmt.Fprintf(w, "cache: %d hits / %d misses (%.1f%% hit rate), %d entries, epoch %d\n",
			c.Hits, c.Misses, 100*rate, c.Entries, c.Epoch)
		if c.HotPrecomputed > 0 {
			_, _ = fmt.Fprintf(w, "cache: last publish precomputed %d hot users\n", c.HotPrecomputed)
		}
	}
	if h.Ingest == nil {
		_, _ = fmt.Fprintln(w, "no ingest log attached (static bundle)")
		return nil
	}
	_, _ = fmt.Fprintf(w, "ingest: snapshot at log offset %d of %d (lag %d), derived %.1fs ago\n",
		h.Ingest.LogOffset, h.Ingest.LogEnd, h.Ingest.Lag, h.Ingest.StalenessSeconds)
	if h.Ingest.Lag == 0 {
		_, _ = fmt.Fprintln(w, "serving is current with the durable log")
	}
	return nil
}

func emitJSON(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func printRemote(w io.Writer, res *api.RecommendResponse, when int64, k int) {
	if res.Error != "" {
		_, _ = fmt.Fprintf(w, "top-%d for %s at t=%d: error: %s\n", k, res.User, when, res.Error)
		return
	}
	_, _ = fmt.Fprintf(w, "top-%d for %s at t=%d (interval %d):\n", k, res.User, when, res.Interval)
	for i, r := range res.Recommendations {
		_, _ = fmt.Fprintf(w, "%3d. %-40s %.6g\n", i+1, r.Item, r.Score)
	}
	if res.Degraded {
		ranges := make([]string, len(res.MissingItemRanges))
		for i, r := range res.MissingItemRanges {
			ranges[i] = fmt.Sprintf("[%d,%d)", r.Lo, r.Hi)
		}
		_, _ = fmt.Fprintf(w, "WARNING: degraded answer — item ranges %s were unavailable and not considered\n",
			strings.Join(ranges, " "))
	}
}
