package topk

import (
	"math/rand"
	"testing"

	"tcam/internal/model"
)

// windowExclude composes a query's exclude set with an item-window
// restriction, so a full-catalog BruteForce can stand in for the
// ground truth of a windowed index.
func windowExclude(lo, hi int, exclude Exclude) Exclude {
	return func(v int) bool {
		if v < lo || v >= hi {
			return true
		}
		return exclude != nil && exclude(v)
	}
}

// splitRanges cuts v items into n contiguous windows, the ranges
// shard.Partition serves.
func splitRanges(v, n int) [][2]int {
	var out [][2]int
	model.CutRanges(v, n, func(_, lo, hi int) {
		out = append(out, [2]int{lo, hi})
	})
	return out
}

// TestRangeIndexMatchesBruteForce checks the windowed-index contract:
// for every window, queries return exactly the full-catalog brute-force
// top-k restricted to the window — same items (global indices), same
// scores bit for bit, same order.
func TestRangeIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := randomModel(rng, 6, 37)
	for _, shards := range []int{1, 2, 4} {
		for _, r := range splitRanges(f.NumItems(), shards) {
			ix := BuildIndexRange(f, r[0], r[1])
			if lo, hi := ix.ItemRange(); lo != r[0] || hi != r[1] {
				t.Fatalf("ItemRange() = [%d,%d), want [%d,%d)", lo, hi, r[0], r[1])
			}
			for trial := 0; trial < 40; trial++ {
				q := randomQuery(rng, 6, trial%2 == 0)
				k := 1 + rng.Intn(12)
				var exclude Exclude
				if trial%3 == 0 {
					banned := rng.Intn(f.NumItems())
					exclude = func(v int) bool { return v == banned }
				}
				got, _ := queryWith(ix, f, q, k, exclude)
				want, _ := BruteForce(f, 0, 0, k, windowExclude(r[0], r[1], exclude))
				if len(got) != len(want) {
					t.Fatalf("shards=%d window=[%d,%d): got %d results, want %d",
						shards, r[0], r[1], len(got), len(want))
				}
				for i := range got {
					if got[i].Item != want[i].Item || got[i].Score != want[i].Score {
						t.Fatalf("shards=%d window=[%d,%d) k=%d rank %d: got %+v, want %+v",
							shards, r[0], r[1], k, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestRangeIndexMergeBitIdentical is the coordinator-merge argument at
// the topk level: merging the per-window top-k lists of a disjoint
// partition by (score desc, item asc) reproduces the monolithic index's
// top-k bit for bit, for shard counts 1, 2 and 4.
func TestRangeIndexMergeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := randomModel(rng, 5, 53)
	mono := BuildIndex(f)
	for _, shards := range []int{1, 2, 4} {
		var windows []*Index
		for _, r := range splitRanges(f.NumItems(), shards) {
			windows = append(windows, BuildIndexRange(f, r[0], r[1]))
		}
		for trial := 0; trial < 60; trial++ {
			q := randomQuery(rng, 5, trial%2 == 1)
			k := 1 + rng.Intn(15)
			want, _ := queryWith(mono, f, q, k, nil)
			var partials [][]Result
			for _, w := range windows {
				res, _ := queryWith(w, f, q, k, nil)
				partials = append(partials, res)
			}
			got := mergeTopK(partials, k)
			if len(got) != len(want) {
				t.Fatalf("shards=%d k=%d: merged %d results, want %d", shards, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("shards=%d k=%d rank %d: merged %+v, want %+v", shards, k, i, got[i], want[i])
				}
			}
		}
	}
}

// mergeTopK is the reference merge: concatenate, sort by the serving
// tie-break (score desc, item asc), truncate. The shard coordinator
// implements the same order; this test pins the semantics.
func mergeTopK(partials [][]Result, k int) []Result {
	var all []Result
	for _, p := range partials {
		all = append(all, p...)
	}
	// Insertion sort keeps the comparison explicit (and mirrors the
	// strict-order comparators used on the serving path).
	for i := 1; i < len(all); i++ {
		for j := i; j > 0; j-- {
			a, b := all[j-1], all[j]
			better := b.Score > a.Score || (!(b.Score < a.Score) && b.Item < a.Item)
			if !better {
				break
			}
			all[j-1], all[j] = all[j], all[j-1]
		}
	}
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func TestBuildIndexRangeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := randomModel(rng, 3, 10)
	for _, bad := range [][2]int{{-1, 5}, {4, 2}, {0, 11}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BuildIndexRange(%d, %d) did not panic", bad[0], bad[1])
				}
			}()
			BuildIndexRange(f, bad[0], bad[1])
		}()
	}
	// An empty window is legal and answers every query with nothing.
	empty := BuildIndexRange(f, 4, 4)
	if res, _ := queryWith(empty, f, []float64{1, 0, 0}, 5, nil); res != nil {
		t.Errorf("empty window returned %+v", res)
	}
}
