package ingest

// Ingest-log benchmarks (ISSUE 9): append throughput (the producer
// side) and replay throughput (the fold-in side), snapshotted into
// BENCH_ingest.json by scripts/bench.sh ingest. Both report events/s
// via the events metric so the JSON carries rates, not just ns/op.

import (
	"fmt"
	"testing"
)

func benchRecord(i int) Record {
	return Record{
		User:  fmt.Sprintf("user-%04d", i%512),
		Item:  fmt.Sprintf("item-%05d", i%4096),
		Time:  int64(i),
		Score: float64(i%5) + 1,
	}
}

// BenchmarkAppend measures single-record durable appends — the worst
// case for a producer, one fsync per event.
func BenchmarkAppend(b *testing.B) {
	lg, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lg.Append(benchRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkAppendBatch amortizes the fsync over 128-record batches,
// the shape tcamgen -stream and real producers use.
func BenchmarkAppendBatch(b *testing.B) {
	const batch = 128
	lg, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]Record, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range recs {
			recs[j] = benchRecord(i*batch + j)
		}
		if _, err := lg.Append(recs...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkReplay measures a full deterministic replay of a 16k-event
// log — the cost a restarting updater pays before its first publish.
func BenchmarkReplay(b *testing.B) {
	const n = 16384
	dir := b.TempDir()
	lg, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]Record, 256)
	for lo := 0; lo < n; lo += len(recs) {
		for j := range recs {
			recs[j] = benchRecord(lo + j)
		}
		if _, err := lg.Append(recs...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		if err := lg.Replay(0, func(_ int64, _ Record) error {
			count++
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if count != n {
			b.Fatalf("replayed %d records, want %d", count, n)
		}
	}
	b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "events/s")
}
