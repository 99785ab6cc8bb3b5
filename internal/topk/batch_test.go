package topk

import (
	"context"
	"math/rand"
	"testing"

	"tcam/internal/faultinject"
)

// QueryBatch must mark every entry Done; Done is what distinguishes an
// abandoned query from a legitimately empty ranking.
func TestQueryBatchMarksDone(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	fm := randomModel(rng, 5, 40)
	ix := BuildIndex(fm)
	queries := []BatchQuery{{U: 0, T: 0, K: 3}, {U: 1, T: 0, K: 0}, {U: 2, T: 1, K: 5}}
	for i, br := range ix.QueryBatch(context.Background(), fm, queries, 2) {
		if !br.Done {
			t.Errorf("query %d not marked Done", i)
		}
	}
}

func TestQueryBatchContextPreCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	fm := randomModel(rng, 5, 40)
	ix := BuildIndex(fm)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	queries := make([]BatchQuery, 8)
	for i := range queries {
		queries[i] = BatchQuery{U: 0, T: 0, K: 3}
	}
	for i, br := range ix.QueryBatch(ctx, fm, queries, 1) {
		if br.Done || br.Results != nil {
			t.Errorf("query %d ran under a cancelled context: %+v", i, br)
		}
	}
}

// Cancelling mid-batch (deterministically, via the faultinject site
// fired before each query) must stop TA work at that point: with one
// worker the completed entries form exactly the prefix before the
// cancellation, and each completed entry is fully correct.
func TestQueryBatchContextCancelMidBatch(t *testing.T) {
	defer faultinject.Reset()
	rng := rand.New(rand.NewSource(23))
	fm := randomModel(rng, 5, 60)
	ix := BuildIndex(fm)
	queries := make([]BatchQuery, 10)
	for i := range queries {
		queries[i] = BatchQuery{U: i % 3, T: 0, K: 4}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The 4th firing cancels: queries 0..2 complete, 3..9 are abandoned.
	faultinject.Set("topk.batch.query", faultinject.CancelsAfter(4, cancel))
	out := ix.QueryBatch(ctx, fm, queries, 1)
	for i, br := range out {
		if want := i < 3; br.Done != want {
			t.Errorf("query %d: Done = %v, want %v", i, br.Done, want)
		}
		if br.Done {
			wantRes, wantSt := ix.Query(fm, queries[i].U, queries[i].T, queries[i].K, nil)
			assertSameResults(t, br.Results, wantRes)
			if br.Stats != wantSt {
				t.Errorf("query %d: stats %+v, want %+v", i, br.Stats, wantSt)
			}
		}
	}
}
