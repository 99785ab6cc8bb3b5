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

// allConfirmed checks TA's one admission rule after s's last query:
// every distinct, non-excluded item the query popped got the exact
// float64 confirm, so Stats.ItemsExamined is their count, read off the
// searcher's seen table, and ScreenedOut is 0.
func allConfirmed(s *Searcher, st Stats, exclude Exclude) error {
	popped := 0
	for i, stamp := range s.seen {
		if stamp == s.epoch && (exclude == nil || !exclude(s.ix.itemLo+i)) {
			popped++
		}
	}
	if st.ItemsExamined != popped || st.ScreenedOut != 0 {
		return fmt.Errorf("%+v for %d distinct non-excluded items popped; want every one examined", st, popped)
	}
	return nil
}

// TestEveryCandidateIsConfirmed: allConfirmed on deepWorld at k = 50,
// where the heap fills early and most candidates arrive after it, with
// and without exclusions; results are BruteForce's bit for bit. The TA ≡
// BruteForce property tests run the same check on their worlds.
func TestEveryCandidateIsConfirmed(t *testing.T) {
	c := deepWorld()
	s := BuildIndex(c).NewSearcher()
	for u := 0; u < len(c.user); u++ {
		at := (7 * u) % len(c.omega)
		var exclude Exclude
		if u%2 == 1 {
			exclude = func(item int) bool { return item%5 == u%5 }
		}
		want, _ := BruteForce(c, u, at, 50, exclude)
		got, st := s.Query(c, u, at, 50, exclude)
		if err := allConfirmed(s, st, exclude); err != nil {
			t.Fatalf("query (%d,%d): %v", u, at, err)
		}
		if len(got) != len(want) {
			t.Fatalf("query (%d,%d): %d results, BruteForce %d", u, at, len(got), len(want))
		}
		for i := range got {
			if got[i].Item != want[i].Item || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("query (%d,%d) rank %d: got %+v, BruteForce %+v", u, at, i, got[i], want[i])
			}
		}
	}
}
