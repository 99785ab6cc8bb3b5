package topk

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
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
	if !reflect.DeepEqual(got.floor, want.floor) {
		t.Fatalf("%s: floor list differs from a from-scratch build\n got %v\nwant %v", label, got.floor, want.floor)
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
// background topic), the rest one whose topics all keep their own list:
// ITCAM's shape, user topics and a floor list, or, every other time, a
// scorer that names no user topics and so has no floor.
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
		if seed%4 == 0 {
			c.lo, c.hi = 0, 0
		}
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
// widened catalog — all but the changed one otherwise. The floor list:
// as long as no user topic changed. Context lists: every interval whose
// θ′ row stood still — the boot intervals, always — but not the refit
// open interval, and none once a context topic moved. Nothing across a
// moved window or from no previous index.
func TestBuildIndexFromInherits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	plain := tiedContextModel(rng, 4, 0, 0, 1, 30) // 4 topic lists, no user topics named: no floor
	plain.lo, plain.hi = 0, 0
	item := tiedContextModel(rng, 3, 0, 2, 2, 30) // 3 user + 2 item-context topic lists, the floor
	ctx := tiedContextModel(rng, 3, 2, 1, 4, 30)  // 3 user + 1 background topic lists, 4 contexts, the floor
	for _, c := range []*contextModel{plain, item, ctx} {
		if prev := BuildIndex(c); prev.ListsKept() != 0 {
			t.Fatalf("a from-scratch index reports %d inherited lists", prev.ListsKept())
		}
	}
	if got := BuildIndex(ctx).NumLists(); got != 9 {
		t.Fatalf("3 user topics, 2 collapsed context topics, a background and 4 intervals make %d lists, want 9", got)
	}
	if got := BuildIndex(item).NumLists(); got != 6 {
		t.Fatalf("3 user topics and 2 item contexts make %d lists, want 6", got)
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
		{item, "same", 0, -1, 6},
		{item, "appended items", 0, -1, 6},
		{item, "changed user topic", 0, -1, 4},
		{item, "grown topic count", 0, -1, 6},
		{item, "shrunken catalog", 0, -1, 0},
		{ctx, "same", 0, -1, 9},
		{ctx, "appended items", 0, -1, 9},
		{ctx, "changed user topic", 0, -1, 7},
		{ctx, "changed context topic", 0, -1, 5},
		{ctx, "refit interval", 0, -1, 8},
		{ctx, "opened interval", 0, -1, 9},
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
	// topic's list nor, when it is a user topic, the floor nor, when it is
	// a context topic, the contexts.
	for _, z := range []int{1, ctx.lo} {
		n := nextGeneration(rng, ctx, "same")
		n.topics[z] = append([]float64(nil), n.topics[z]...)
		n.topics[z][25] += 0.5
		shard := BuildIndexRange(ctx, 5, 20)
		if got := BuildIndexFrom(shard, n, 5, 20).ListsKept(); got != 9 {
			t.Errorf("change to topic %d outside the window: kept %d lists, want 9", z, got)
		}
	}
}

// streamGeneration is the scorer one publish after c under a frozen ϕ:
// grow stream-born items arrive, weighing +0 in every topic that
// existed — the rows one reslice longer where their storage has room,
// like a model grown within its stride, and moved to wider storage
// where it has not. The live interval is refit; now and then another
// opens. With itemContexts (ITCAM's shape: the trailing topics are the
// intervals' item distributions, nothing collapsed) the refit draws the
// live interval's row anew over the whole catalog, new items included,
// so that one topic's tail is not zero.
func streamGeneration(rng *rand.Rand, c *contextModel, grow int, itemContexts, open bool) *contextModel {
	v := c.NumItems() + grow
	n := &contextModel{fakeTopicModel: &fakeTopicModel{}, lo: c.lo, hi: c.hi, user: c.user, gamma: c.gamma, omega: c.omega}
	for _, row := range c.topics {
		if cap(row) < v {
			row = append(make([]float64, 0, v+64), row...)
		}
		n.topics = append(n.topics, row[:v])
	}
	liveRow := func() []float64 {
		row := tiedRow(rng, v)
		row[v-1] = 0.5 // the newest item was seen in the live interval
		return row
	}
	if itemContexts {
		n.topics[len(n.topics)-1] = liveRow()
		if open {
			n.topics = append(n.topics, liveRow())
			n.user = nil
			for _, row := range c.user {
				n.user = append(n.user, append(append([]float64(nil), row...), tiedRow(rng, 1)...))
			}
		}
		return n
	}
	n.omega = append([][]float64(nil), c.omega...)
	n.omega[len(n.omega)-1] = tiedRow(rng, c.hi-c.lo)
	if open {
		n.omega = append(n.omega, tiedRow(rng, c.hi-c.lo))
	}
	return n
}

// assertBruteForce checks TA over ix against BruteForce on the window.
func assertBruteForce(t *testing.T, label string, rng *rand.Rand, c *contextModel, ix *Index) {
	t.Helper()
	lo, hi := ix.ItemRange()
	for trial := 0; trial < 6; trial++ {
		u, at, k := rng.Intn(len(c.user)), rng.Intn(max(1, len(c.omega))), 1+rng.Intn(12)
		got, _ := ix.Query(c, u, at, k, nil)
		if want := c.wantTopK(u, at, k, windowExclude(lo, hi, nil)); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("%s: TA answered query (%d,%d) k=%d with %v, BruteForce with %v", label, u, at, k, got, want)
		}
	}
}

// TestBuildIndexFromAcrossSpareRoom chains forty publishes of five
// stream-born items each, so the room a growing build leaves behind its
// lists and tables — 64 items at these sizes — runs out and is laid out
// again every thirteenth link. Every link equals the from-scratch build
// field for field and answers as BruteForce does. Under collapsed
// contexts (TTCAM, with and without a background topic, whole catalog
// and a window that starts inside it) the new items weigh nothing
// anywhere: between relayouts both tables and every list but the refit
// interval's are the previous generation's storage. Under item contexts
// the live interval's topic weighs the new items, so its list and the
// tables take the copying path every time while the other topics' lists
// and the floor are still shared.
func TestBuildIndexFromAcrossSpareRoom(t *testing.T) {
	for _, tc := range []struct {
		name         string
		k2, tail, lo int
		itemContexts bool
		wantShared   int // lists shared, at least, in a link where those of the first layout find room
	}{
		{name: "TTCAM", k2: 3, wantShared: 3 + 1 + 1},
		{name: "TTCAM+background", k2: 3, tail: 1, wantShared: 3 + 1 + 1 + 1},
		{name: "TTCAM window", k2: 2, tail: 1, lo: 7, wantShared: 3 + 1 + 1 + 1},
		{name: "ITCAM", tail: 2, itemContexts: true, wantShared: 3 + 1 + 1},
		{name: "ITCAM window", tail: 2, lo: 5, itemContexts: true, wantShared: 3 + 1 + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			c := tiedContextModel(rng, 3, tc.k2, tc.tail, 2, 20)
			prev := BuildIndexRange(c, tc.lo, c.NumItems())
			for gen := 0; gen < 40; gen++ {
				c = streamGeneration(rng, c, 5, tc.itemContexts, gen%9 == 4)
				got := BuildIndexFrom(prev, c, tc.lo, c.NumItems())
				label := fmt.Sprintf("generation %d (%d items)", gen, c.NumItems())
				assertSameIndex(t, label, rng, c, got, BuildIndexRange(c, tc.lo, c.NumItems()))
				assertBruteForce(t, label, rng, c, got)
				room := gen%13 != 0 // a boot index leaves none, a relayout 64 items' worth: 13 links of 5
				if want := room && !tc.itemContexts; got.TablesShared() != want {
					t.Errorf("%s: tables shared with the previous generation: %t, want %t", label, got.TablesShared(), want)
				}
				if room && got.ListsShared() < tc.wantShared {
					t.Errorf("%s: %d of %d lists are the previous generation's storage, want at least %d",
						label, got.ListsShared(), got.NumLists(), tc.wantShared)
				}
				prev = got
			}
		})
	}
}

// TestZeroTailSharesStorage: a generation whose new items weigh +0
// everywhere is the previous one's lists, floor list included, and
// tables one reslice longer — the same arrays — once a growing build has
// left room; an item with weight under one user topic costs that topic's
// list, the floor and the tables a copy and the other lists nothing. A
// boot index has no room to share.
func TestZeroTailSharesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c := tiedContextModel(rng, 3, 2, 1, 3, 30)
	boot := BuildIndex(c)
	c = streamGeneration(rng, c, 4, false, false)
	first := BuildIndexFrom(boot, c, 0, c.NumItems())
	if first.TablesShared() || first.ListsShared() != 0 {
		t.Fatalf("growing past a boot index shared its tables (%t) or %d lists: a boot index has no room", first.TablesShared(), first.ListsShared())
	}
	sameStorage := func(a, b *Index, z int) bool {
		return &a.lists[z].items[0] == &b.lists[z].items[0] && &a.lists[z].weights[0] == &b.lists[z].weights[0]
	}

	zero := *c
	zero.fakeTopicModel = &fakeTopicModel{}
	for _, row := range c.topics {
		zero.topics = append(zero.topics, row[:len(row)+6]) // streamGeneration left zeroed room behind each row
	}
	next := BuildIndexFrom(first, &zero, 0, zero.NumItems())
	assertSameIndex(t, "zero tail", rng, &zero, next, BuildIndex(&zero))
	for _, z := range []int{0, 1, 2, 5} { // the user topics and the background; 3 and 4 are collapsed
		if !sameStorage(next, first, z) {
			t.Errorf("zero tail: list of topic %d was copied", z)
		}
	}
	for at := range next.contexts {
		if &next.contexts[at].items[0] != &first.contexts[at].items[0] {
			t.Errorf("zero tail: context list of interval %d was copied", at)
		}
	}
	if &next.floor.items[0] != &first.floor.items[0] || &next.floor.weights[0] != &first.floor.weights[0] {
		t.Error("zero tail: the floor list was copied")
	}
	if &next.byItem[0] != &first.byItem[0] || &next.byItem32[0] != &first.byItem32[0] || !next.TablesShared() {
		t.Error("zero tail: the transposed tables were copied")
	}
	if next.ListsShared() != next.NumLists() {
		t.Errorf("zero tail: %d of %d lists reported shared", next.ListsShared(), next.NumLists())
	}

	weighed := zero
	weighed.fakeTopicModel = &fakeTopicModel{topics: append([][]float64(nil), zero.topics...)}
	weighed.topics[1] = append([]float64(nil), zero.topics[1]...)
	weighed.topics[1][zero.NumItems()-2] = 0.25
	next = BuildIndexFrom(first, &weighed, 0, weighed.NumItems())
	assertSameIndex(t, "weighed tail", rng, &weighed, next, BuildIndex(&weighed))
	if sameStorage(next, first, 1) || &next.floor.items[0] == &first.floor.items[0] ||
		&next.byItem[0] == &first.byItem[0] || &next.byItem32[0] == &first.byItem32[0] || next.TablesShared() {
		t.Error("weighed tail: a list or table with a new non-zero entry shares the previous generation's storage")
	}
	for _, z := range []int{0, 2, 5} {
		if !sameStorage(next, first, z) {
			t.Errorf("weighed tail: list of untouched topic %d was copied", z)
		}
	}
	negZero := zero
	negZero.fakeTopicModel = &fakeTopicModel{topics: append([][]float64(nil), zero.topics...)}
	negZero.topics[0] = append([]float64(nil), zero.topics[0]...)
	negZero.topics[0][zero.NumItems()-1] = math.Copysign(0, -1)
	next = BuildIndexFrom(first, &negZero, 0, negZero.NumItems())
	assertSameIndex(t, "negative-zero tail", rng, &negZero, next, BuildIndex(&negZero))
	if sameStorage(next, first, 0) || next.TablesShared() {
		t.Error("negative-zero tail: −0 is not the +0 the spare room holds, yet storage was shared")
	}
}

// TestTwoSuccessorsOfOneGeneration: a cycle retried with more events
// derives a second successor from the index the first was derived from.
// Both equal their from-scratch builds, and deriving the second leaves
// the first — which shares the same spare room — as it was.
func TestTwoSuccessorsOfOneGeneration(t *testing.T) {
	for _, itemContexts := range []bool{false, true} {
		rng := rand.New(rand.NewSource(13))
		k2, tail := 2, 1
		if itemContexts {
			k2, tail = 0, 2
		}
		c := tiedContextModel(rng, 3, k2, tail, 3, 24)
		c = streamGeneration(rng, c, 3, itemContexts, false)
		prev := BuildIndexFrom(BuildIndex(c), c, 0, c.NumItems()) // unchanged window: still no room
		c = streamGeneration(rng, c, 3, itemContexts, false)
		prev = BuildIndexFrom(prev, c, 0, c.NumItems()) // grown: laid out with room
		a := streamGeneration(rng, c, 2, itemContexts, false)
		b := streamGeneration(rng, c, 9, itemContexts, true)
		first := BuildIndexFrom(prev, a, 0, a.NumItems())
		assertSameIndex(t, "first successor", rng, a, first, BuildIndex(a))
		second := BuildIndexFrom(prev, b, 0, b.NumItems())
		assertSameIndex(t, "second successor", rng, b, second, BuildIndex(b))
		assertSameIndex(t, "first successor after the second", rng, a, first, BuildIndex(a))
		assertSameIndex(t, "their predecessor", rng, c, prev, BuildIndex(c))
		if !itemContexts && (!first.TablesShared() || !second.TablesShared()) {
			t.Error("the successors did not share their predecessor's tables: the test does not reach the reslice path")
		}
	}
}

// TestReadersDuringDerivation: readers query generation N while
// generations N+1 … N+8 are derived from it, one from the other, and
// published — under the race detector the proof that a derivation
// writes nothing a published generation can see, though it shares that
// generation's arrays.
func TestReadersDuringDerivation(t *testing.T) {
	type generation struct {
		c  *contextModel
		ix *Index
	}
	rng := rand.New(rand.NewSource(14))
	c := tiedContextModel(rng, 3, 2, 1, 2, 40)
	c = streamGeneration(rng, c, 4, false, false)
	var serving atomic.Pointer[generation]
	serving.Store(&generation{c, BuildIndexFrom(BuildIndex(c), c, 0, c.NumItems())})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := serving.Load()
				u, at, k := rng.Intn(len(g.c.user)), rng.Intn(len(g.c.omega)), 1+rng.Intn(10)
				got, _ := g.ix.Query(g.c, u, at, k, nil)
				if want := g.c.wantTopK(u, at, k, nil); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
					t.Errorf("query (%d,%d) k=%d during a derivation answered %v, want %v", u, at, k, got, want)
					return
				}
			}
		}(int64(r))
	}
	for gen := 0; gen < 8; gen++ {
		g := serving.Load()
		next := streamGeneration(rng, g.c, 1+rng.Intn(6), false, gen == 5)
		serving.Store(&generation{next, BuildIndexFrom(g.ix, next, 0, next.NumItems())})
	}
	close(stop)
	wg.Wait()
}
