package main

import (
	"reflect"
	"testing"

	"tcam/internal/index"
	"tcam/internal/ingest"
)

// generated is every input of one seed, at a size a unit test can
// afford: the request streams as the bytes the client sends, and the
// event batches as the records the writer appends.
type generated struct {
	hot, cold []string
	batches   [][]ingest.Record
	trainJSON int
}

func generate(t *testing.T, seed int64) generated {
	t.Helper()
	w, err := genWorld(seed, 300, 400)
	if err != nil {
		t.Fatal(err)
	}
	boot, batches, err := splitStream(w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := trainBundle(boot, 4, 3, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := generated{batches: batches}
	paths := func(reqs []req, err error) []string {
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(reqs))
		for i, q := range reqs {
			out[i] = q.Path
		}
		return out
	}
	g.hot = paths(hotRequests(seed, 500, b))
	g.cold = paths(coldRequests(seed, 500, 50, b))
	h, err := splitHoldout(seed, w)
	if err != nil {
		t.Fatal(err)
	}
	g.trainJSON = h.trainLog.NumEvents()
	if len(h.queries) == 0 {
		t.Fatal("no held-out queries")
	}
	return g
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := generate(t, 3), generate(t, 3), generate(t, 4)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed generated different request streams or event batches")
	}
	if reflect.DeepEqual(a.hot, c.hot) || reflect.DeepEqual(a.cold, c.cold) || reflect.DeepEqual(a.batches, c.batches) {
		t.Error("a different seed generated the same inputs")
	}
}

// The stream must be in time order and must bring users the boot bundle
// has never seen, or publish_under_read would not exercise fold-in.
func TestStreamIsOrderedAndBringsNewUsers(t *testing.T) {
	w, err := genWorld(5, 300, 400)
	if err != nil {
		t.Fatal(err)
	}
	boot, batches, err := splitStream(w)
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for u := 0; u < boot.NumUsers(); u++ {
		known[boot.UserID(u)] = true
	}
	last, fresh := int64(bootDays), 0
	for _, batch := range batches {
		if len(batch) > appendBatch {
			t.Fatalf("batch of %d records", len(batch))
		}
		for _, rec := range batch {
			if rec.Time < last {
				t.Fatalf("stream goes back in time: %d after %d", rec.Time, last)
			}
			last = rec.Time
			if !known[rec.User] {
				fresh++
			}
		}
	}
	if fresh == 0 {
		t.Error("the stream brings no user the boot bundle has not seen")
	}
}

func TestCheckAnswerCatchesEachStructuralFault(t *testing.T) {
	b := &index.Bundle{Items: []string{"i0", "i1", "i2", "i3"}}
	q := req{K: 2, Exclude: []int{3}, Path: "/q"}
	mk := func(items []string, scores []float64) *answer {
		a := &answer{}
		for i := range items {
			a.Recommendations = append(a.Recommendations, recommendation{items[i], scores[i]})
		}
		return a
	}
	if err := checkAnswer(b, q, mk([]string{"i0", "i1"}, []float64{2, 1})); err != nil {
		t.Errorf("good answer rejected: %v", err)
	}
	if checkAnswer(b, q, mk([]string{"i0"}, []float64{2})) == nil {
		t.Error("short answer accepted")
	}
	if checkAnswer(b, q, mk([]string{"i0", "i1"}, []float64{1, 2})) == nil {
		t.Error("rising scores accepted")
	}
	if checkAnswer(b, q, mk([]string{"i0", "i3"}, []float64{2, 1})) == nil {
		t.Error("excluded item accepted")
	}
}
