package topk

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// tiedRow draws v weights from a handful of levels, zero among them, so
// lists are full of ties and the item tie-break decides the order.
func tiedRow(rng *rand.Rand, v int) []float64 {
	row := make([]float64, v)
	for i := range row {
		row[i] = float64(rng.Intn(5)) / 8
	}
	return row
}

// tiedModel is a k-topic, v-item scorer of tiedRows.
func tiedModel(rng *rand.Rand, k, v int) *fakeTopicModel {
	f := &fakeTopicModel{queries: map[[2]int][]float64{}}
	for z := 0; z < k; z++ {
		f.topics = append(f.topics, tiedRow(rng, v))
	}
	return f
}

// nextGeneration derives the scorer of the following publish from f by
// one of the ways a bundle changes between generations. Unchanged
// topics either share f's slab or are a copy of it, like a model grown
// without or with a wider catalog.
func nextGeneration(rng *rand.Rand, f *fakeTopicModel, how string) *fakeTopicModel {
	k, v := f.NumTopics(), f.NumItems()
	n := &fakeTopicModel{queries: map[[2]int][]float64{}}
	for _, row := range f.topics {
		if rng.Intn(2) == 0 {
			row = append([]float64(nil), row...)
		}
		n.topics = append(n.topics, row)
	}
	switch how {
	case "same":
	case "appended items":
		grow := 1 + rng.Intn(9)
		for z, row := range n.topics {
			n.topics[z] = append(append([]float64(nil), row...), tiedRow(rng, grow)...)
		}
	case "one changed topic":
		z := rng.Intn(k)
		row := append([]float64(nil), n.topics[z]...)
		row[rng.Intn(v)] += 0.0625
		n.topics[z] = row
	case "grown topic count": // ITCAM: one pseudo-topic per opened interval
		for i := 0; i <= rng.Intn(3); i++ {
			n.topics = append(n.topics, tiedRow(rng, v))
		}
	case "appended items and topics":
		n = nextGeneration(rng, nextGeneration(rng, f, "appended items"), "grown topic count")
	case "shrunken catalog":
		cut := v - 1 - rng.Intn(v/2)
		for z, row := range n.topics {
			n.topics[z] = row[:cut]
		}
	case "fewer topics":
		n.topics = n.topics[:1+rng.Intn(k)]
	default:
		panic("unknown generation change " + how)
	}
	return n
}

// assertSameIndex checks got against want field for field — lists,
// both transposed tables down to the bit, screen constants, window —
// and then through the Threshold Algorithm: same answers, same Stats.
func assertSameIndex(t *testing.T, label string, rng *rand.Rand, got, want *Index) {
	t.Helper()
	if got.numTopics != want.numTopics || got.numItems != want.numItems || got.itemLo != want.itemLo {
		t.Fatalf("%s: shape (K=%d, V=%d, lo=%d), want (K=%d, V=%d, lo=%d)", label,
			got.numTopics, got.numItems, got.itemLo, want.numTopics, want.numItems, want.itemLo)
	}
	if got.screenScale != want.screenScale || got.screenEps != want.screenEps {
		t.Fatalf("%s: screen constants (%v, %v), want (%v, %v)", label,
			got.screenScale, got.screenEps, want.screenScale, want.screenEps)
	}
	for z := range want.lists {
		if !reflect.DeepEqual(got.lists[z], want.lists[z]) {
			t.Fatalf("%s: list of topic %d differs from a from-scratch build\n got %v\nwant %v", label, z, got.lists[z], want.lists[z])
		}
	}
	if len(got.byItem) != len(want.byItem) || len(got.byItem32) != len(want.byItem32) {
		t.Fatalf("%s: transposed tables sized %d/%d, want %d/%d", label,
			len(got.byItem), len(got.byItem32), len(want.byItem), len(want.byItem32))
	}
	for i := range want.byItem {
		if math.Float64bits(got.byItem[i]) != math.Float64bits(want.byItem[i]) ||
			math.Float32bits(got.byItem32[i]) != math.Float32bits(want.byItem32[i]) {
			t.Fatalf("%s: transposed table entry %d differs", label, i)
		}
	}
	for trial := 0; trial < 8; trial++ {
		q := randomQuery(rng, want.numTopics, trial%2 == 0)
		k := 1 + rng.Intn(want.numItems+2)
		var exclude Exclude
		if trial%3 == 0 {
			banned := want.itemLo + rng.Intn(want.numItems+1)
			exclude = func(v int) bool { return v == banned }
		}
		gr, gs := got.QueryWeights(q, k, exclude)
		wr, ws := want.QueryWeights(q, k, exclude)
		if !reflect.DeepEqual(gr, wr) || gs != ws {
			t.Fatalf("%s: TA over the inherited index answered %v %+v, from scratch %v %+v", label, gr, gs, wr, ws)
		}
	}
}

// TestBuildIndexFromMatchesBuildIndexRange is the inheritance property:
// whatever the previous generation's index was — any window, itself
// inherited or not — and however the scorer changed since,
// BuildIndexFrom equals BuildIndexRange on the new scorer.
func TestBuildIndexFromMatchesBuildIndexRange(t *testing.T) {
	changes := []string{"same", "appended items", "one changed topic", "grown topic count",
		"appended items and topics", "shrunken catalog", "fewer topics"}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := tiedModel(rng, 1+rng.Intn(5), 4+rng.Intn(40))
		// A full-catalog server's window follows the catalog; a shard's is
		// fixed, and may stop short of or at the catalog's end.
		lo, fixedHi := 0, -1
		if seed%3 != 0 {
			lo = rng.Intn(f.NumItems() / 2)
			fixedHi = lo + 1 + rng.Intn(f.NumItems()-lo)
		}
		window := func(m *fakeTopicModel) (int, int) {
			hi := m.NumItems()
			if fixedHi >= 0 && fixedHi < hi {
				hi = fixedHi
			}
			return min(lo, hi), hi
		}
		wlo, whi := window(f)
		prev := BuildIndexRange(f, wlo, whi)
		for gen := 0; gen < 5; gen++ {
			how := changes[rng.Intn(len(changes))]
			f = nextGeneration(rng, f, how)
			wlo, whi = window(f)
			got := BuildIndexFrom(prev, f, wlo, whi)
			label := fmt.Sprintf("seed %d generation %d (%s, window [%d,%d))", seed, gen, how, wlo, whi)
			assertSameIndex(t, label, rng, got, BuildIndexRange(f, wlo, whi))
			prev = got
		}
	}
}

// TestBuildIndexFromInherits pins which lists a generation keeps: all
// of them under a frozen ϕ — shared slab, copied slab, a widened
// catalog — all but the changed one otherwise, and none across a moved
// window or from no previous index.
func TestBuildIndexFromInherits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := tiedModel(rng, 4, 30)
	prev := BuildIndex(f)
	if prev.ListsKept() != 0 {
		t.Fatalf("a from-scratch index reports %d inherited lists", prev.ListsKept())
	}
	for _, tc := range []struct {
		how    string
		lo, hi int // hi < 0: the whole catalog
		kept   int
	}{
		{"same", 0, -1, 4},
		{"appended items", 0, -1, 4},
		{"one changed topic", 0, -1, 3},
		{"grown topic count", 0, -1, 4},
		{"shrunken catalog", 0, -1, 0},
		{"same", 1, -1, 0},
	} {
		n := nextGeneration(rng, f, tc.how)
		hi := tc.hi
		if hi < 0 {
			hi = n.NumItems()
		}
		if got := BuildIndexFrom(prev, n, tc.lo, hi).ListsKept(); got != tc.kept {
			t.Errorf("%s, window [%d,%d): kept %d lists, want %d", tc.how, tc.lo, hi, got, tc.kept)
		}
	}
	// A change outside a shard's window does not cost the shard its list.
	n := nextGeneration(rng, f, "same")
	n.topics[2] = append([]float64(nil), n.topics[2]...)
	n.topics[2][25] += 0.5
	shard := BuildIndexRange(f, 5, 20)
	if got := BuildIndexFrom(shard, n, 5, 20).ListsKept(); got != 4 {
		t.Errorf("change outside the window: kept %d lists, want 4", got)
	}
}
