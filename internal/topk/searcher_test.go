package topk

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// Property (ISSUE 1 satellite): one pooled Searcher reused across many
// random queries — random topic scorers, random sparse weights, random
// excludes — must equal BruteForce exactly (items, scores, order) every
// time. Guards the epoch-stamped seen table, heap reuse, and the
// incremental-threshold confirm logic.
func TestSearcherReuseEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kTopics := rng.Intn(8) + 1
		v := rng.Intn(120) + 5
		fm := randomModel(rng, kTopics, v)
		ix := BuildIndex(fm)
		s := ix.AcquireSearcher()
		defer s.Release()
		for round := 0; round < 12; round++ {
			q := randomQuery(rng, kTopics, true)
			k := rng.Intn(v+3) + 1
			var ex Exclude
			if rng.Float64() < 0.5 {
				banned := map[int]bool{}
				for i := 0; i < rng.Intn(6); i++ {
					banned[rng.Intn(v)] = true
				}
				ex = func(item int) bool { return banned[item] }
			}
			fm.queries[[2]int{0, 0}] = q
			ta, _ := s.Query(fm, 0, 0, k, ex)
			bf, _ := BruteForce(fm, 0, 0, k, ex)
			if len(ta) != len(bf) {
				return false
			}
			for i := range ta {
				if ta[i].Item != bf[i].Item {
					return false
				}
				if d := ta[i].Score - bf[i].Score; d > 1e-10 || d < -1e-10 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// The epoch stamp must survive wrapping around uint32: the seen table
// is cleared exactly once and queries stay correct on both sides.
func TestSearcherEpochWraparound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fm := randomModel(rng, 4, 60)
	ix := BuildIndex(fm)
	s := ix.NewSearcher()
	s.epoch = ^uint32(0) - 2
	want, _ := BruteForce(fm, 0, 0, 7, nil)
	for round := 0; round < 6; round++ {
		got, _ := s.Query(fm, 0, 0, 7, nil)
		assertSameResults(t, got, want)
	}
	if s.epoch == 0 || s.epoch > 4 {
		t.Errorf("epoch after wraparound = %d, want small positive", s.epoch)
	}
}

// Concurrent pooled queries must be race-free (run under -race via
// scripts/check.sh) and all return the same answer.
func TestConcurrentPooledQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	fm := randomModel(rng, 6, 200)
	ix := BuildIndex(fm)
	want, _ := BruteForce(fm, 0, 0, 10, nil)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, _ := ix.Query(fm, 0, 0, 10, nil)
				if len(got) != len(want) {
					errs <- "length mismatch"
					return
				}
				for j := range got {
					if got[j].Item != want[j].Item {
						errs <- "item mismatch"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// Searcher result slices are scratch: the next query on the same
// searcher may overwrite them, but Index.Query must hand out fresh
// copies.
func TestIndexQueryReturnsOwnedResults(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	fm := randomModel(rng, 4, 50)
	ix := BuildIndex(fm)
	first, _ := ix.Query(fm, 0, 0, 5, nil)
	snapshot := append([]Result(nil), first...)
	for i := 0; i < 20; i++ {
		ix.Query(fm, 0, 0, 5, func(v int) bool { return v%2 == 0 })
	}
	for i := range first {
		if first[i] != snapshot[i] {
			t.Fatal("Index.Query result mutated by later queries")
		}
	}
}

// TestScreenedOutNeverChangesResults: the f32 screen only ever rejects
// a candidate the exact path would have confirmed and then discarded.
// The same queries through a twin index whose screen admits everything
// (screenEps = +Inf) must give the same results, score bits included,
// and BruteForce's, and the same pops — the pop order does not read
// the screen — while each rejection turns into exactly one extra
// confirm. Tied dyadic rows put exact ties at the k-th place, where
// the screen's error margin decides; skewed rows are the common case.
// The screen must actually fire.
func TestScreenedOutNeverChangesResults(t *testing.T) {
	screened := 0
	for seed := int64(1); seed <= 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k1, k2, v := 1+rng.Intn(6), 1+rng.Intn(5), 20+rng.Intn(300)
		var c *contextModel
		if seed%2 == 0 {
			c = tiedContextModel(rng, k1, k2, rng.Intn(2), 1+rng.Intn(3), v)
		} else {
			c = &contextModel{fakeTopicModel: skewedModel(rng, k1+k2, v), lo: k1, hi: k1 + k2}
			for i := 0; i <= rng.Intn(3); i++ {
				c.omega = append(c.omega, contextRow(rng, k2))
			}
			for u := 0; u < 3; u++ {
				c.user = append(c.user, randomQuery(rng, k1+k2, true))
				c.gamma = append(c.gamma, rng.Float64())
			}
		}
		ix := BuildIndex(c)
		open := *ix
		open.screenEps = math.Inf(1)
		s, o := ix.NewSearcher(), open.NewSearcher()
		for round := 0; round < 10; round++ {
			u, at, k := rng.Intn(3), rng.Intn(len(c.omega)), 1+rng.Intn(20)
			var exclude Exclude
			if round%3 == 0 {
				banned := rng.Intn(v)
				exclude = func(item int) bool { return item == banned }
			}
			got, st := s.Query(c, u, at, k, exclude)
			ref, ost := o.Query(c, u, at, k, exclude)
			want := c.wantTopK(u, at, k, exclude)
			label := fmt.Sprintf("seed %d query (%d,%d) k=%d", seed, u, at, k)
			if ost.ScreenedOut != 0 {
				t.Fatalf("%s: the open screen rejected %d candidates", label, ost.ScreenedOut)
			}
			if len(got) != len(want) || len(ref) != len(want) {
				t.Fatalf("%s: %d results, %d unscreened, BruteForce %d", label, len(got), len(ref), len(want))
			}
			for i := range got {
				if got[i] != want[i] || ref[i] != want[i] {
					t.Fatalf("%s rank %d: screened %+v, unscreened %+v, BruteForce %+v", label, i, got[i], ref[i], want[i])
				}
			}
			if st.ListPops != ost.ListPops || st.ItemsExamined+st.ScreenedOut != ost.ItemsExamined {
				t.Fatalf("%s: screened %+v, unscreened %+v; want equal pops and examined+screened = examined", label, st, ost)
			}
			screened += st.ScreenedOut
		}
	}
	if screened == 0 {
		t.Fatal("the screen rejected nothing; the test exercises nothing")
	}
	t.Logf("%d candidates screened out", screened)
}
