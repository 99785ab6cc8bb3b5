package shard

import (
	"context"
	"fmt"
	"testing"

	"tcam/internal/client"
)

// BenchmarkCoordinator measures one scatter-gather /recommend through
// live shard servers (real HTTP per leg) at fleet sizes 1, 2, and 4 —
// the coordinator-side cost curve BENCH_query.json tracks alongside the
// in-process topk numbers.
func BenchmarkCoordinator(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		// "=" rather than "-" before the count: scripts/bench.sh strips a
		// trailing -N as the GOMAXPROCS suffix when building the JSON.
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			// The hedger tcamshard runs with — newFleet's never-warm one
			// keeps a 1 024-sample window that every leg would sort.
			f := newFleet(b, n, func(cfg *Config) { cfg.Hedger = client.HedgerConfig{} }, nil)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				user := fmt.Sprintf("user-%d", i%6)
				resp, err := f.c.Recommend(ctx, user, 100+int64(i%30), 10, nil)
				if err != nil {
					b.Fatal(err)
				}
				if resp.Degraded {
					b.Fatal("degraded response in benchmark")
				}
			}
		})
	}
}
