// Command tcamgen generates a synthetic social-media interaction log
// from one of the four dataset profiles (Digg, MovieLens, Douban,
// Delicious) and writes it as JSONL, the format the rest of the toolchain
// consumes.
//
// Usage:
//
//	tcamgen -profile digg -out digg.jsonl [-seed 1] [-users N] [-items N] [-days N]
//	tcamgen -profile digg -out digg.log -stream [-batch 256]
//	tcamgen -profile digg -out load.jsonl -queries 10000 [-qseed 1] [-k 10] [-max-exclude 4]
//
// With -stream, -out names an ingest log directory instead of a JSONL
// file: the generated events are sorted by event time and appended as
// CRC-framed ingest records in -batch sized appends, producing exactly
// the time-ordered stream a producer would feed `tcamserver
// -ingest-log` — so the continuous-ingestion path can be load-tested
// against realistic Zipf-shaped traffic.
//
// With -queries N, tcamgen emits a serving workload instead of events:
// N JSONL requests ({"user","time","k","exclude"}, the batch API's
// query shape) whose user/item popularity is Zipf-skewed over the
// activity ranking of the generated dataset — or of an existing one
// named with -dataset. `tcamquery -users @file` and the server
// benchmarks consume this format directly.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"tcam/internal/datagen"
	"tcam/internal/dataset"
	"tcam/internal/ingest"
)

func main() {
	var (
		profileName = flag.String("profile", "digg", "dataset profile: digg | movielens | douban | delicious")
		out         = flag.String("out", "", "output JSONL path, or ingest log directory with -stream (required)")
		seed        = flag.Int64("seed", 1, "generator seed")
		users       = flag.Int("users", 0, "override user count (0 = profile default)")
		items       = flag.Int("items", 0, "override item count (0 = profile default)")
		days        = flag.Int("days", 0, "override timeline length in days (0 = profile default)")
		stream      = flag.Bool("stream", false, "emit a time-ordered ingest log directory instead of a JSONL dataset")
		batch       = flag.Int("batch", 256, "records per ingest append with -stream")

		queries    = flag.Int("queries", 0, "emit a Zipf query workload of this many JSONL requests instead of events")
		datasetIn  = flag.String("dataset", "", "with -queries: rank users/items from this JSONL dataset instead of generating one")
		qseed      = flag.Int64("qseed", 1, "query-stream seed (independent of -seed)")
		k          = flag.Int("k", 10, "top-k per emitted query")
		maxExclude = flag.Int("max-exclude", 0, "per-query exclude-list length bound")
		userExp    = flag.Float64("user-exp", 1.1, "Zipf exponent of query-user popularity")
		itemExp    = flag.Float64("item-exp", 1.1, "Zipf exponent of exclude-item popularity")
	)
	flag.Parse()
	qc := queryConfig{n: *queries, seed: *qseed, k: *k, maxExclude: *maxExclude, userExp: *userExp, itemExp: *itemExp}
	if err := run(*profileName, *out, *seed, *users, *items, *days, *stream, *batch, *datasetIn, qc); err != nil {
		fmt.Fprintln(os.Stderr, "tcamgen:", err)
		os.Exit(1)
	}
}

func run(profileName, out string, seed int64, users, items, days int, stream bool, batch int, datasetIn string, qc queryConfig) error {
	if out == "" {
		return fmt.Errorf("-out is required")
	}
	if qc.n > 0 && datasetIn != "" {
		// Query mode over an existing dataset needs no world generation.
		log, err := dataset.LoadJSONLFile(datasetIn)
		if err != nil {
			return err
		}
		return emitQueries(log, out, qc, datasetIn)
	}
	profile, err := parseProfile(profileName)
	if err != nil {
		return err
	}
	cfg := datagen.DefaultConfig(profile)
	cfg.Seed = seed
	if users > 0 {
		cfg.NumUsers = users
	}
	if items > 0 {
		cfg.NumItems = items
	}
	if days > 0 {
		cfg.NumDays = days
	}
	world, err := datagen.Generate(cfg)
	if err != nil {
		return err
	}
	if qc.n > 0 {
		return emitQueries(world.Log, out, qc, fmt.Sprintf("%s profile, seed %d", profile, seed))
	}
	if stream {
		if err := writeStream(world.Log, out, batch); err != nil {
			return err
		}
		fmt.Printf("streamed %s: %d users, %d items, %d time-ordered events over %d days (%s profile, seed %d)\n",
			out, world.Log.NumUsers(), world.Log.NumItems(), world.Log.NumEvents(), cfg.NumDays, profile, seed)
		return nil
	}
	if err := world.Log.SaveJSONLFile(out); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d users, %d items, %d events over %d days (%s profile, seed %d)\n",
		out, world.Log.NumUsers(), world.Log.NumItems(), world.Log.NumEvents(), cfg.NumDays, profile, seed)
	return nil
}

// writeStream appends the log's events, sorted by event time (ties keep
// generation order, so output is deterministic per seed), to the ingest
// log directory dir in batchSize-record appends.
func writeStream(log *dataset.Interactions, dir string, batchSize int) error {
	if batchSize <= 0 {
		return fmt.Errorf("-batch must be positive, got %d", batchSize)
	}
	events := log.Events()
	recs := make([]ingest.Record, len(events))
	for i, e := range events {
		recs[i] = log.Record(e)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
	lg, err := ingest.Open(dir)
	if err != nil {
		return err
	}
	for lo := 0; lo < len(recs); lo += batchSize {
		hi := lo + batchSize
		if hi > len(recs) {
			hi = len(recs)
		}
		if _, err := lg.Append(recs[lo:hi]...); err != nil {
			return err
		}
	}
	return nil
}

// emitQueries writes the workload and reports what it covered; source
// describes where the activity ranking came from.
func emitQueries(log *dataset.Interactions, out string, qc queryConfig, source string) error {
	if err := writeQueries(log, out, qc); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d queries over %d users, %d items (%s, qseed %d)\n",
		out, qc.n, log.NumUsers(), log.NumItems(), source, qc.seed)
	return nil
}

func parseProfile(name string) (datagen.Profile, error) {
	switch strings.ToLower(name) {
	case "digg":
		return datagen.Digg, nil
	case "movielens":
		return datagen.MovieLens, nil
	case "douban":
		return datagen.Douban, nil
	case "delicious":
		return datagen.Delicious, nil
	default:
		return 0, fmt.Errorf("unknown profile %q (want digg|movielens|douban|delicious)", name)
	}
}
