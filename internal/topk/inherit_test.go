package topk

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// nextGeneration derives the scorer of the following publish from c by
// one of the ways a bundle changes between generations. Unchanged
// topics and context rows either share c's slab or are a copy of it,
// like a model grown without or with a wider catalog.
func nextGeneration(rng *rand.Rand, c *contextModel, how string) *contextModel {
	k, v := c.NumTopics(), c.NumItems()
	n := &contextModel{fakeTopicModel: &fakeTopicModel{}, lo: c.lo, hi: c.hi, user: c.user, gamma: c.gamma}
	maybeCopy := func(row []float64) []float64 {
		if rng.Intn(2) == 0 {
			return append([]float64(nil), row...)
		}
		return row
	}
	for _, row := range c.topics {
		n.topics = append(n.topics, maybeCopy(row))
	}
	for _, row := range c.omega {
		n.omega = append(n.omega, maybeCopy(row))
	}
	changeTopic := func(z int) {
		row := append([]float64(nil), n.topics[z]...)
		row[rng.Intn(v)] += 0.0625
		n.topics[z] = row
	}
	switch how {
	case "same":
	case "appended items":
		grow := 1 + rng.Intn(9)
		for z, row := range n.topics {
			n.topics[z] = append(append([]float64(nil), row...), tiedRow(rng, grow)...)
		}
	case "one changed topic":
		changeTopic(rng.Intn(k))
	case "changed user topic":
		changeTopic(rng.Intn(c.lo))
	case "changed context topic":
		changeTopic(c.lo + rng.Intn(c.hi-c.lo))
	case "refit interval": // the open interval's θ′ row moves with every batch
		n.omega[len(n.omega)-1] = tiedRow(rng, c.hi-c.lo)
	case "opened interval":
		n.omega = append(n.omega, tiedRow(rng, c.hi-c.lo))
	case "grown topic count": // ITCAM: one pseudo-topic per opened interval
		n.user = nil
		for i := 0; i <= rng.Intn(3); i++ {
			n.topics = append(n.topics, tiedRow(rng, v))
		}
		for _, row := range c.user {
			n.user = append(n.user, append(append([]float64(nil), row...), tiedRow(rng, len(n.topics)-k)...))
		}
	case "appended items and topics":
		n = nextGeneration(rng, nextGeneration(rng, c, "appended items"), "grown topic count")
	case "shrunken catalog":
		cut := v - 1 - rng.Intn(v/2)
		for z, row := range n.topics {
			n.topics[z] = row[:cut]
		}
	case "fewer topics": // never into the context range
		keep := c.hi + rng.Intn(k-c.hi+1)
		if keep == 0 {
			keep = 1
		}
		n.topics, n.user = n.topics[:keep], nil
		for _, row := range c.user {
			n.user = append(n.user, row[:keep])
		}
	default:
		panic("unknown generation change " + how)
	}
	return n
}

// assertSameIndex checks got against want field for field — topic and
// context lists, both transposed tables down to the bit, the screen and
// bound constants, window — and then through the Threshold Algorithm:
// same answers, same Stats.
func assertSameIndex(t *testing.T, label string, rng *rand.Rand, c *contextModel, got, want *Index) {
	t.Helper()
	if got.numTopics != want.numTopics || got.numItems != want.numItems || got.itemLo != want.itemLo ||
		got.ctxLo != want.ctxLo || got.ctxHi != want.ctxHi || len(got.contexts) != len(want.contexts) {
		t.Fatalf("%s: shape (K=%d, V=%d, lo=%d, contexts [%d,%d)→%d), want (K=%d, V=%d, lo=%d, contexts [%d,%d)→%d)", label,
			got.numTopics, got.numItems, got.itemLo, got.ctxLo, got.ctxHi, len(got.contexts),
			want.numTopics, want.numItems, want.itemLo, want.ctxLo, want.ctxHi, len(want.contexts))
	}
	if got.screenScale != want.screenScale || got.screenEps != want.screenEps || got.boundScale != want.boundScale {
		t.Fatalf("%s: screen and bound constants (%v, %v, %v), want (%v, %v, %v)", label,
			got.screenScale, got.screenEps, got.boundScale, want.screenScale, want.screenEps, want.boundScale)
	}
	for z := range want.lists {
		if !reflect.DeepEqual(got.lists[z], want.lists[z]) {
			t.Fatalf("%s: list of topic %d differs from a from-scratch build\n got %v\nwant %v", label, z, got.lists[z], want.lists[z])
		}
	}
	for i := range want.contexts {
		if !reflect.DeepEqual(got.contexts[i], want.contexts[i]) {
			t.Fatalf("%s: context list of interval %d differs from a from-scratch build\n got %v\nwant %v", label, i, got.contexts[i], want.contexts[i])
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
		u, at := rng.Intn(len(c.user)), rng.Intn(max(1, len(c.omega)))
		k := 1 + rng.Intn(want.numItems+2)
		var exclude Exclude
		if trial%3 == 0 {
			banned := want.itemLo + rng.Intn(want.numItems+1)
			exclude = func(v int) bool { return v == banned }
		}
		gr, gs := got.Query(c, u, at, k, exclude)
		wr, ws := want.Query(c, u, at, k, exclude)
		if !reflect.DeepEqual(gr, wr) || gs != ws {
			t.Fatalf("%s: TA over the inherited index answered %v %+v, from scratch %v %+v", label, gr, gs, wr, ws)
		}
	}
}

// TestBuildIndexFromMatchesBuildIndexRange is the inheritance property:
// whatever the previous generation's index was — any window, itself
// inherited or not — and however the scorer changed since, topics,
// context rows or intervals, BuildIndexFrom equals BuildIndexRange on
// the new scorer, over chains of generations. Odd seeds run a scorer
// with collapsed contexts (TTCAM's shape, with and without a trailing
// background topic), the rest one whose topics all keep their own list.
func TestBuildIndexFromMatchesBuildIndexRange(t *testing.T) {
	for seed := int64(1); seed <= 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		changes := []string{"same", "appended items", "one changed topic", "grown topic count",
			"appended items and topics", "shrunken catalog", "fewer topics"}
		k2 := 0
		if seed%2 == 1 {
			k2 = 1 + rng.Intn(4)
			changes = append(changes, "changed user topic", "changed context topic",
				"refit interval", "refit interval", "opened interval")
		}
		c := tiedContextModel(rng, 1+rng.Intn(4), k2, rng.Intn(2), 1+rng.Intn(4), 4+rng.Intn(40))
		// A full-catalog server's window follows the catalog; a shard's is
		// fixed, and may stop short of or at the catalog's end.
		lo, fixedHi := 0, -1
		if seed%3 != 0 {
			lo = rng.Intn(c.NumItems() / 2)
			fixedHi = lo + 1 + rng.Intn(c.NumItems()-lo)
		}
		window := func(m *contextModel) (int, int) {
			hi := m.NumItems()
			if fixedHi >= 0 && fixedHi < hi {
				hi = fixedHi
			}
			return min(lo, hi), hi
		}
		wlo, whi := window(c)
		prev := BuildIndexRange(c, wlo, whi)
		for gen := 0; gen < 6; gen++ {
			how := changes[rng.Intn(len(changes))]
			c = nextGeneration(rng, c, how)
			wlo, whi = window(c)
			got := BuildIndexFrom(prev, c, wlo, whi)
			label := fmt.Sprintf("seed %d generation %d (%s, window [%d,%d))", seed, gen, how, wlo, whi)
			assertSameIndex(t, label, rng, c, got, BuildIndexRange(c, wlo, whi))
			prev = got
		}
	}
}

// TestBuildIndexFromInherits pins which lists a generation keeps. Topic
// lists: all of them under a frozen ϕ — shared slab, copied slab, a
// widened catalog — all but the changed one otherwise. Context lists:
// every interval whose θ′ row stood still — the boot intervals, always —
// but not the refit open interval, and none once a context topic moved.
// Nothing across a moved window or from no previous index.
func TestBuildIndexFromInherits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	plain := tiedContextModel(rng, 4, 0, 0, 1, 30) // 4 topic lists
	ctx := tiedContextModel(rng, 3, 2, 1, 4, 30)   // 3 user + 1 background topic lists, 4 contexts
	for _, c := range []*contextModel{plain, ctx} {
		if prev := BuildIndex(c); prev.ListsKept() != 0 {
			t.Fatalf("a from-scratch index reports %d inherited lists", prev.ListsKept())
		}
	}
	if got := BuildIndex(ctx).NumLists(); got != 8 {
		t.Fatalf("3 user topics, 2 collapsed context topics, a background and 4 intervals make %d lists, want 8", got)
	}
	for _, tc := range []struct {
		c      *contextModel
		how    string
		lo, hi int // hi < 0: the whole catalog
		kept   int
	}{
		{plain, "same", 0, -1, 4},
		{plain, "appended items", 0, -1, 4},
		{plain, "one changed topic", 0, -1, 3},
		{plain, "grown topic count", 0, -1, 4},
		{plain, "shrunken catalog", 0, -1, 0},
		{plain, "same", 1, -1, 0},
		{ctx, "same", 0, -1, 8},
		{ctx, "appended items", 0, -1, 8},
		{ctx, "changed user topic", 0, -1, 7},
		{ctx, "changed context topic", 0, -1, 4},
		{ctx, "refit interval", 0, -1, 7},
		{ctx, "opened interval", 0, -1, 8},
		{ctx, "shrunken catalog", 0, -1, 0},
		{ctx, "same", 1, -1, 0},
	} {
		prev := BuildIndex(tc.c)
		n := nextGeneration(rng, tc.c, tc.how)
		hi := tc.hi
		if hi < 0 {
			hi = n.NumItems()
		}
		if got := BuildIndexFrom(prev, n, tc.lo, hi).ListsKept(); got != tc.kept {
			t.Errorf("%d-list index, %s, window [%d,%d): kept %d lists, want %d", prev.NumLists(), tc.how, tc.lo, hi, got, tc.kept)
		}
	}
	// A change outside a shard's window costs the shard neither the
	// topic's list nor, when it is a context topic, the contexts.
	for _, z := range []int{1, ctx.lo} {
		n := nextGeneration(rng, ctx, "same")
		n.topics[z] = append([]float64(nil), n.topics[z]...)
		n.topics[z][25] += 0.5
		shard := BuildIndexRange(ctx, 5, 20)
		if got := BuildIndexFrom(shard, n, 5, 20).ListsKept(); got != 8 {
			t.Errorf("change to topic %d outside the window: kept %d lists, want 8", z, got)
		}
	}
}
