package server

// Streaming-loop benchmarks: fold-in latency (one updater cycle over a
// freshly appended event, including the Advance derivation), the same
// cycle at production batch size behind logs of growing length, and
// snapshot publish latency (the atomic swap alone), snapshotted into
// BENCH_ingest.json by scripts/bench.sh ingest — which, given a parent
// checkout, copies this file there to run the same cycle on both trees,
// so it leans only on helpers the package's other test files have long
// defined (updaterFixture, numbered).

import (
	"fmt"
	"math/rand"
	"testing"

	"tcam/internal/cuboid"
	"tcam/internal/dataset"
	"tcam/internal/index"
	"tcam/internal/ingest"
	"tcam/internal/model/tcam"
)

// BenchmarkUpdaterStep measures one full ingest cycle: refresh the log,
// replay one new event, re-derive the grown bundle from boot, and
// publish. This is the serving-lag floor per event at batch size 1.
func BenchmarkUpdaterStep(b *testing.B) {
	dir := b.TempDir()
	_, up := updaterFixture(b, dir)
	producer, err := ingest.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := ingest.Record{
			User:  fmt.Sprintf("late-%03d", i%256),
			Item:  fmt.Sprintf("item-%d", i%12),
			Time:  100 + int64(i%30),
			Score: 1,
		}
		if _, err := producer.Append(rec); err != nil {
			b.Fatal(err)
		}
		if published, err := up.Step(); err != nil || !published {
			b.Fatalf("Step = (%v, %v)", published, err)
		}
	}
}

// historyBatch is the append size of BenchmarkUpdaterStepHistory — the
// repo benchmark's publish_under_read batch.
const historyBatch = 256

// historyBoot trains the BenchmarkUpdaterStepHistory boot bundle: a
// catalog wide enough (32 topics × 4 000 items) that sorting its lists
// and carrying per-shard statistics slabs over it are visible costs.
func historyBoot(tb testing.TB) *index.Bundle {
	tb.Helper()
	const users, intervals, items = 800, 8, 4000
	rng := rand.New(rand.NewSource(3))
	b := cuboid.NewBuilder(users, intervals, items)
	for u := 0; u < users; u++ {
		for i := 0; i < 24; i++ {
			b.MustAdd(u, rng.Intn(intervals), rng.Intn(items), 1+float64(i%3))
		}
	}
	cfg := tcam.DefaultConfig()
	cfg.K1, cfg.K2, cfg.MaxIters = 20, 12, 3
	m, _, err := tcam.Train(b.Build(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return index.New(m, dataset.TimeGrid{Origin: 0, Length: 4096, Num: intervals}, numbered("user", users), numbered("item", items))
}

// historyEvent is the i-th event of the benchmark stream: time advances
// with i so an interval opens every 4 096 events, three events in ten
// come from a stream-born user (a population that keeps growing) and
// one in fifty rates a stream-born item.
func historyEvent(rng *rand.Rand, boot *index.Bundle, i int) ingest.Record {
	rec := ingest.Record{
		User:  boot.Users[rng.Intn(len(boot.Users))],
		Item:  boot.Items[rng.Intn(len(boot.Items))],
		Time:  boot.Grid.Origin + int64(boot.Grid.Num)*boot.Grid.Length + int64(i),
		Score: 1 + float64(i%3),
	}
	if rng.Intn(10) < 3 {
		rec.User = fmt.Sprintf("late-%d", rng.Intn(i/8+1))
	}
	if rng.Intn(50) == 0 {
		rec.Item = fmt.Sprintf("fresh-%d", rng.Intn(i/64+1))
	}
	return rec
}

// BenchmarkUpdaterStepHistory measures one ingest cycle over a
// 256-event batch once the log already holds 1k, 8k or 32k events: what
// a publish costs as history accumulates. The server is configured as
// the repo benchmark's is — result cache on, the 256 hottest users
// (the updater seeds the sketch from the stream) warmed at the live
// interval on every publish — so the cycle includes the queries it
// triggers. A cycle that re-derives everything from boot grows with the
// log, and so does one whose warming queries scan deeper the longer the
// stream has run; one that inherits from the previous generation and
// bounds the live interval's context by one list stays near the 1k
// figure (scripts/bench_smoke.sh fails when the 32k step is more than
// twice the 1k step).
func BenchmarkUpdaterStepHistory(b *testing.B) {
	boot := historyBoot(b)
	for _, size := range []struct {
		name   string
		events int
	}{{"1k", 1 << 10}, {"8k", 8 << 10}, {"32k", 32 << 10}} {
		b.Run(size.name, func(b *testing.B) {
			srv, err := New(boot, WithCache(1<<14), WithHotPrecompute(256))
			if err != nil {
				b.Fatal(err)
			}
			lg, err := ingest.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			up, err := NewUpdater(srv, lg, boot, UpdaterConfig{})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			next := 0
			step := func() {
				batch := make([]ingest.Record, historyBatch)
				for i := range batch {
					batch[i] = historyEvent(rng, boot, next)
					next++
				}
				if _, err := lg.Append(batch...); err != nil {
					b.Fatal(err)
				}
				if published, err := up.Step(); err != nil || !published {
					b.Fatalf("Step = (%v, %v)", published, err)
				}
			}
			for next < size.events {
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// BenchmarkSnapshotPublish isolates the publish end: validating and
// atomically swapping an already-built bundle into the serving path.
func BenchmarkSnapshotPublish(b *testing.B) {
	srv, _ := updaterFixture(b, b.TempDir())
	boot := srv.snapshot().bundle
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Reload(boot); err != nil {
			b.Fatal(err)
		}
	}
}
