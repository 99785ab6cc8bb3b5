package main

// Query-workload emission (-queries): instead of an event log, tcamgen
// writes a JSONL stream of serving requests, one api.Query —
// {"user","time","k","exclude"} — per line, so the same file drives
// `tcamquery -users @file`, the server benchmarks, and any external load
// generator. User and item popularity in the workload follow the
// activity ranking of a concrete dataset (generated or loaded with
// -dataset), so the hottest query users are the users a trained bundle
// actually knows most about — matching how cache hit rates behave in
// production, where read and write skew coincide.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"tcam/internal/api"
	"tcam/internal/datagen"
	"tcam/internal/dataset"
)

// queryConfig carries the -queries flag group.
type queryConfig struct {
	n          int     // number of queries to emit
	seed       int64   // query-stream seed (independent of the world seed)
	k          int     // top-k per query
	maxExclude int     // per-query exclude-list bound
	userExp    float64 // Zipf exponent over activity-ranked users
	itemExp    float64 // Zipf exponent over activity-ranked exclude items
}

// writeQueries synthesizes qc.n Zipf-skewed queries against log's
// user/item catalogs and writes them to path as JSONL, one query per
// line. Timestamps are drawn uniformly across the log's observed time
// span so the workload exercises every interval of a bundle built from
// the same data.
func writeQueries(log *dataset.Interactions, path string, qc queryConfig) error {
	users := rankByActivity(log.NumUsers(), log.Events(),
		func(e dataset.Event) int { return e.User }, log.UserID)
	items := rankByActivity(log.NumItems(), log.Events(),
		func(e dataset.Event) int { return e.Item }, log.ItemID)
	tmin, tmax, ok := log.TimeSpan()
	if !ok {
		return fmt.Errorf("dataset has no events to derive a query time span from")
	}
	queries, err := datagen.GenerateQueries(datagen.QueryLoadConfig{
		Queries:      qc.n,
		Users:        len(users),
		Items:        len(items),
		UserExponent: qc.userExp,
		ItemExponent: qc.itemExp,
		TimeMin:      tmin,
		TimeMax:      tmax,
		K:            qc.k,
		MaxExclude:   qc.maxExclude,
		Seed:         qc.seed,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, q := range queries {
		rec := api.Query{User: log.UserID(users[q.User]), Time: q.Time, K: q.K}
		for _, v := range q.Exclude {
			rec.Exclude = append(rec.Exclude, log.ItemID(items[v]))
		}
		if err := enc.Encode(rec); err != nil {
			_ = f.Close() // already on the error path
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // already on the error path
		return err
	}
	return f.Close()
}

// rankByActivity orders the catalog indices that appear in at least
// one event by descending event count. GenerateQueries hands out Zipf
// ranks — rank 0 hottest — and this maps rank onto the catalog index
// that actually is hottest in the data. Ties break on the entry's
// name, not its index, so the ranking is identical whether the catalog
// was interned at generation time or re-interned from a saved JSONL
// (the two orders differ). Zero-event entries are dropped: a bundle
// trained from the same events has never seen them, and a generated
// world may intern users the saved JSONL never mentions.
func rankByActivity(n int, events []dataset.Event, of func(dataset.Event) int, name func(int) string) []int {
	counts := make([]int, n)
	for _, e := range events {
		counts[of(e)]++
	}
	var order []int
	for i, c := range counts {
		if c > 0 {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if counts[a] != counts[b] {
			return counts[a] > counts[b]
		}
		return name(a) < name(b)
	})
	return order
}
