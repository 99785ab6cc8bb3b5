// Package topk implements the paper's Section 4 query processing for
// temporal top-k recommendation: a brute-force ranker that scores every
// item, and the extended Threshold Algorithm (Algorithm 1, after Fagin
// et al.) that answers queries from pre-sorted item lists — one per
// user-oriented topic and one per interval's temporal context —
// terminating as soon as the k-th best score provably beats every
// unseen item.
//
// TA applies to any model exposing the monotone decomposition of
// Equation (22) — S(u,t,v) = Σ_z̃ ϑ_qz̃·ϕ_z̃v with non-negative weights —
// which the model.TopicScorer interface captures. BPTF's trilinear form
// has signed factors and therefore no such decomposition, which is why
// the paper (and this package) can only rank it brute-force.
//
// The serving fast path keeps steady-state queries allocation-free: a
// Searcher holds all per-query scratch (cursors, an epoch-stamped seen
// table, both heaps) and is recycled through a sync.Pool, and
// QueryBatch fans query slices across workers with one pooled Searcher
// each. All paths return results bit-identical to BruteForce.
package topk

import (
	"math"
	"slices"
	"sort"

	"tcam/internal/model"
	"tcam/internal/train"
)

// Result is one recommended item with its ranking score.
type Result struct {
	Item  int
	Score float64
}

// Stats reports how much work a query did — the quantity Figure 8 and
// the TA ablation measure.
type Stats struct {
	// ItemsExamined counts distinct items whose full score was computed.
	ItemsExamined int
	// ListPops counts entries consumed from the sorted lists (TA only).
	ListPops int
	// ScreenedOut counts candidates the float32 screening scan rejected
	// without an exact float64 confirm (TA only). Screened candidates
	// are provably below the k-th best at rejection time, so they never
	// affect results.
	ScreenedOut int
}

// Exclude filters candidate items; a nil Exclude admits everything. The
// evaluation protocol uses it to keep a user's training items out of
// their recommendations.
type Exclude func(item int) bool

// BruteForce ranks every item with the model and returns the top k by
// score (ties broken by ascending item index). It uses the model's bulk
// scorer when available.
func BruteForce(r model.Recommender, u, t, k int, exclude Exclude) ([]Result, Stats) {
	st := Stats{}
	if k <= 0 {
		return nil, st
	}
	n := r.NumItems()
	scores := make([]float64, n)
	if bulk, ok := r.(model.BulkScorer); ok {
		bulk.ScoreAll(u, t, scores)
	} else {
		for v := 0; v < n; v++ {
			scores[v] = r.Score(u, t, v)
		}
	}
	st.ItemsExamined = n
	h := resultHeap{k: k}
	for v := 0; v < n; v++ {
		if exclude != nil && exclude(v) {
			continue
		}
		h.offer(Result{Item: v, Score: scores[v]})
	}
	return h.appendSorted(make([]Result, 0, h.Len())), st
}

// Index holds the sorted item lists of Section 4.2 plus a transposed ϕ
// table for O(K) full-score evaluation. There is one list per expanded
// topic, except that the topics a model.ContextScorer weighs by the
// interval alone are replaced by one collapsed list per interval,
// sorted by Σ_x ω_t[x]·ϕ_x,v: the sum itself, not the sum of K2 heads,
// bounds the context half of an unseen item's score. Such a scorer's
// index also holds a floor list, sorted by Σ_z ϕ_zv over the user
// topics, that carries the weight those topics share. The table is dual:
// an exact float64 copy (byItem) answers the confirm step, and a
// quantized float32 copy (byItem32) feeds the screening scan that
// filters candidates at half the memory traffic; both keep the full
// expanded-topic width, so a confirmed score is BruteForce's bit for
// bit. Building from scratch is O(K·V·logV), parallelized across lists;
// BuildIndexFrom inherits what a previous generation's index already
// holds. Queries are read-only and safe for concurrent use.
type Index struct {
	numTopics int       // K, the expanded topic space: the width of a table row
	numItems  int       // window size: number of items this index covers
	itemLo    int       // global index of the window's first item (0 for a full index)
	byItem    []float64 // V×K transposed topic weights: ϕ_zv at [v*K+z]
	byItem32  []float32 // float32 quantization of byItem, same layout

	// lists[z] is expanded topic z's list, empty for the context topics
	// [ctxLo, ctxHi), which contexts[t] — interval t's collapsed list —
	// stands in for. floor, held when a model.ContextScorer names user
	// topics (ctxLo > 0), is sorted by S_v = Σ_{z<ctxLo} ϕ_zv: a query
	// walks it with the least user-topic weight m and each user-topic
	// list with what its weight has above m, so a flat θu opens one list,
	// not K1.
	lists        []list
	contexts     []list
	floor        list
	ctxLo, ctxHi int

	// topics[z] is the scorer's whole-catalog weight slab of topic z and
	// ctxWeights[t] the ω_t contexts[t] was collapsed under; the next
	// generation's BuildIndexFrom compares against them to decide which
	// lists it may inherit. kept counts the lists this index itself
	// inherited, shared those of them that are prev's own storage, and
	// tableShared says the same of byItem and byItem32.
	topics      [][]float64
	ctxWeights  [][]float64
	kept        int
	shared      int
	tableShared bool

	// screenScale and screenEps over-approximate the worst-case error of
	// the float32 screening dot product: for any item,
	// trueScore <= float64(score32)·screenScale + screenEps. A candidate
	// is sent to the exact float64 confirm whenever its screened score
	// could still reach the current k-th best under this bound, so the
	// screen can cause extra confirms but never a missed result. See
	// DESIGN.md §12 for the derivation.
	screenScale float64
	screenEps   float64

	// boundScale inflates the threshold S_TA so that it dominates the
	// float64 Score of every unseen item although the two add their terms
	// in different groupings (DESIGN.md §12).
	boundScale float64
}

// boundEps is the absolute slack next to boundScale: it covers products
// that underflow, where no relative margin holds.
const boundEps = 0x1p-1000

// list is one sorted list: items[i], a local window offset, carries
// weights[i], in (weight descending, item ascending) order. Two arrays
// rather than one of pairs: 12 bytes an entry instead of 16.
type list struct {
	items   []int32
	weights []float64
}

// BuildIndex precomputes the sorted lists (and the transposed weight
// table) for ts. Zero-weight entries are kept: the lists must cover the
// catalog for the threshold bound to hold as k grows.
func BuildIndex(ts model.TopicScorer) *Index {
	return BuildIndexRange(ts, 0, ts.NumItems())
}

// BuildIndexRange builds an index covering only the items in [lo, hi) —
// the per-shard item window of the scatter-gather serving tier. The
// windowed index answers the same queries as a full one restricted to
// its window: results carry global item indices, Exclude callbacks
// receive global item indices, and scores are the exact full-model
// scores, so merging disjoint windows' top-k lists by (score desc, item
// asc) reproduces the monolithic top-k bit for bit (the global top-k is
// a subset of the union of per-window top-k's). Memory scales with the
// window, not the catalog: lists and both transposed tables hold hi−lo
// entries per list or topic.
func BuildIndexRange(ts model.TopicScorer, lo, hi int) *Index {
	return BuildIndexFrom(nil, ts, lo, hi)
}

// BuildIndexFrom is BuildIndexRange given the index of the previous
// generation: whatever prev already holds that the new scorer leaves
// unchanged is inherited instead of re-derived, and the result equals
// BuildIndexRange(ts, lo, hi) field for field. prev is a hint, never an
// authority — nil, another window origin, a wider window or another
// context range simply inherit nothing.
//
// A sorted list depends on nothing but its weights over the window, and
// (weight desc, item asc) is a strict total order, so the sorted list
// of a weight vector is unique. Hence, per list: when the weights over
// prev's window are bit for bit the ones prev's list was sorted from,
// that list is the sorted order of the window's head, and merging in
// the sorted tail of items prev did not cover yields the one sorted
// list of the whole window; otherwise the list is sorted from scratch.
// New items that all weigh +0 — a stream-born item under a frozen ϕ —
// need no merge: extend, and the table step after it, admit them by
// reslicing prev's storage, moving no byte of it.
// A topic's weights are its slab. A collapsed context's weights are a
// function of ω_t and the context topics' slabs, each term computed per
// item, so it is unchanged exactly when those are — which is read off
// the slab comparison every topic gets anyway, once per build, plus T
// short rows. The floor list's weights are a per-item sum of the user
// topics' slabs, so it is unchanged exactly when all of those are. The
// choice is made from the weights alone: a frozen ϕ keeps every topic
// list, the floor and every context whose θ′ row stood still across
// publishes; the refit open interval re-sorts its one list.
//
// Work parallelizes in passes: the slab comparisons and then the lists
// fan out one per task, and the ϕ transpose fans out over item ranges
// so each worker writes a contiguous region of byItem (a topic-major
// split would interleave writes every K entries and thrash cache lines
// between workers).
func BuildIndexFrom(prev *Index, ts model.TopicScorer, lo, hi int) *Index {
	if lo < 0 || hi < lo || hi > ts.NumItems() {
		panic("topk: item window out of bounds")
	}
	k, v := ts.NumTopics(), hi-lo
	ix := &Index{
		numTopics: k,
		numItems:  v,
		itemLo:    lo,
		lists:     make([]list, k),
		topics:    make([][]float64, k),
		// 16× the analytic bound on the f32 screening error — relative
		// term (K+8)·2⁻²⁰ vs the true ≤(K+8)·2⁻²⁴, absolute slack far
		// above any subnormal underflow — so the screen is sound with
		// wide margin and the slack costs only the occasional extra
		// exact confirm.
		screenScale: 1 + float64(k+8)*0x1p-20,
		screenEps:   1e-35,
		// More than twice the analytic bound (3K+4)·2⁻⁵³ on how far
		// rounding can lift an unseen item's Score above a threshold that
		// sums the context half and the floored user half in other
		// groupings.
		boundScale: 1 + float64(k+8)*0x1p-50,
	}
	for z := 0; z < k; z++ {
		ix.topics[z] = ts.TopicItems(z)
	}
	if cs, ok := ts.(model.ContextScorer); ok {
		if ix.ctxLo, ix.ctxHi = cs.ContextTopics(); ix.ctxHi > ix.ctxLo {
			ix.contexts = make([]list, cs.NumIntervals())
			ix.ctxWeights = make([][]float64, len(ix.contexts))
			for t := range ix.ctxWeights {
				ix.ctxWeights[t] = cs.ContextWeights(t)
			}
		}
	}
	head := 0 // items of the window prev's lists already order
	if prev != nil && prev.itemLo == lo && prev.numItems <= v && prev.ctxLo == ix.ctxLo && prev.ctxHi == ix.ctxHi {
		head = prev.numItems
	} else {
		prev = nil
	}
	// A window that has outgrown prev's will grow again: what has to be
	// laid out for it gets room behind its end. BuildIndexRange leaves
	// none — a boot index is exactly as large as its catalog.
	spare := 0
	if prev != nil && head < v {
		spare = model.SpareItems(v)
	}
	// Entries and table rows are indexed by the local item offset within
	// the window; ascending local order is ascending global order, so
	// every tie-break below matches the full index.
	workers := model.Workers(0)
	same := make([]bool, k) // topic z's weights over prev's window are prev's
	model.ParallelRanges(k, workers, func(_, zlo, zhi int) {
		for z := zlo; z < zhi; z++ {
			same[z] = prev != nil && z < prev.numTopics && sameBits(prev.topics[z][lo:lo+head], ix.topics[z][lo:lo+head])
		}
	})
	ctxSame := prev != nil // every context topic's weights are prev's
	for _, ok := range same[ix.ctxLo:ix.ctxHi] {
		ctxSame = ctxSame && ok
	}
	floorSame := prev != nil // every user topic's weights are prev's
	for _, ok := range same[:ix.ctxLo] {
		floorSame = floorSame && ok
	}
	// One task per list: the topics, the contexts, then the floor.
	lists := k + len(ix.contexts)
	if ix.ctxLo > 0 {
		lists++
	}
	kept := make([]bool, lists)
	shared := make([]bool, len(kept))
	model.ParallelRanges(len(kept), workers, func(_, jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			switch t := j - k; {
			case j >= ix.ctxLo && j < ix.ctxHi:
				// Walked only through the contexts.
			case j < k:
				if kept[j] = same[j]; kept[j] {
					ix.lists[j], shared[j] = extend(prev.lists[j], ix.topics[j][lo+head:hi], spare)
				} else {
					ix.lists[j] = sortedList(ix.topics[j][lo:hi], 0, spare)
				}
			case t == len(ix.contexts) && floorSame:
				kept[j] = true
				ix.floor, shared[j] = extend(prev.floor, ix.floorWeights(lo+head, hi), spare)
			case t == len(ix.contexts):
				ix.floor = sortedList(ix.floorWeights(lo, hi), 0, spare)
			case ctxSame && t < len(prev.contexts) && sameBits(prev.ctxWeights[t], ix.ctxWeights[t]):
				kept[j] = true
				ix.contexts[t], shared[j] = extend(prev.contexts[t], ix.collapse(t, lo+head, hi), spare)
			default:
				ix.contexts[t] = sortedList(ix.collapse(t, lo, hi), 0, spare)
			}
		}
	})
	for j, ok := range kept {
		if ok {
			ix.kept++
		}
		if shared[j] {
			ix.shared++
		}
	}
	// The transposed tables. Their head rows are prev's when every column
	// is an unchanged topic's; the rows behind are zero when the new items
	// weigh +0 under every topic, which is what the room behind a table
	// laid out with spare rows holds. Both: the tables are prev's, one
	// reslice longer (no longer, for an unchanged window).
	headSame := prev != nil && prev.numTopics == k
	for _, ok := range same {
		headSame = headSame && ok
	}
	if tailZero := headSame && v*k <= cap(prev.byItem); tailZero {
		for _, weights := range ix.topics {
			tailZero = tailZero && allZero(weights[lo+head:hi])
		}
		if tailZero {
			ix.byItem, ix.byItem32, ix.tableShared = prev.byItem[:v*k], prev.byItem32[:v*k], true
			return ix
		}
	}
	ix.byItem = make([]float64, v*k, (v+spare)*k)
	ix.byItem32 = make([]float32, v*k, (v+spare)*k)
	from := 0 // rows before it are copied, not transposed again
	if headSame {
		from = head
		copy(ix.byItem, prev.byItem)
		copy(ix.byItem32, prev.byItem32)
	}
	model.ParallelRanges(v-from, workers, func(_, vlo, vhi int) {
		for item := from + vlo; item < from+vhi; item++ {
			row := ix.byItem[item*k : (item+1)*k]
			row32 := ix.byItem32[item*k : (item+1)*k]
			for z, weights := range ix.topics {
				row[z] = weights[lo+item]
				row32[z] = float32(weights[lo+item])
			}
		}
	})
	return ix
}

// collapse returns interval t's context weights Σ_x ω_t[x]·ϕ_x,v of the
// catalog items [from, to): the context topics accumulated in ascending
// order, zero-weight ones skipped, each item on its own — so any
// sub-range of a collapse is the collapse of the sub-range.
func (ix *Index) collapse(t, from, to int) []float64 {
	sum := make([]float64, to-from)
	for x, w := range ix.ctxWeights[t] {
		if w > 0 {
			train.AddScaled(sum, w, ix.topics[ix.ctxLo+x][from:to])
		}
	}
	return sum
}

// floorWeights returns the floor list's weights S_v = Σ_{z<ctxLo} ϕ_zv
// of the catalog items [from, to): the user topics added in ascending
// order, each item on its own — so, like a collapse, any sub-range of it
// is the floor weights of the sub-range, and items no user topic weighs
// get +0.
func (ix *Index) floorWeights(from, to int) []float64 {
	sum := make([]float64, to-from)
	for _, weights := range ix.topics[:ix.ctxLo] {
		train.MergeInto(sum, weights[from:to])
	}
	return sum
}

// entry is one list element while it is being sorted.
type entry struct {
	item   int32
	weight float64
}

// newList returns a list of n entries to be filled in, with room for
// spare more behind them. The room is spelled out as the entries items
// n, n+1, … would get if they all weighed +0 — where (weight desc, item
// asc) puts them behind non-negative weights — so that extend can admit
// such items by reslicing. A list with room is never built any other
// way, and the room is never written again.
func newList(n, spare int) list {
	l := list{items: make([]int32, n, n+spare), weights: make([]float64, n, n+spare)}
	room := l.items[n : n+spare]
	for i := range room {
		room[i] = int32(n + i)
	}
	return l
}

// sortedList returns the sorted list of local items base, base+1, …
// carrying weights[0], weights[1], …. Only a whole window's list
// (base 0) takes spare room.
func sortedList(weights []float64, base, spare int) list {
	entries := make([]entry, len(weights))
	for i, w := range weights {
		entries[i] = entry{item: int32(base + i), weight: w}
	}
	slices.SortFunc(entries, func(a, b entry) int {
		if a.weight > b.weight {
			return -1
		}
		if a.weight < b.weight {
			return 1
		}
		return int(a.item) - int(b.item)
	})
	l := newList(len(entries), spare)
	for i, e := range entries {
		l.items[i], l.weights[i] = e.item, e.weight
	}
	return l
}

// extend returns the sorted list of head's items and the items behind
// them, which carry tail — mergeTail(head, sortedList(tail)) — and
// whether that list is head's own storage. New items that all weigh +0
// sort behind every head entry in ascending order, and that is what the
// room behind head holds (newList): the list is then head one reslice
// longer — nothing allocated, copied or written, so any number of
// generations derived from one head agree on it. No new items at all is
// the same case: lists are immutable and generations share them.
// Anything else — a weight that is not +0, room used up, a head that
// ends below zero — is merged into fresh storage.
func extend(head list, tail []float64, spare int) (list, bool) {
	n := len(head.items) + len(tail)
	if n <= cap(head.items) && allZero(tail) && (n == len(tail) || head.weights[len(head.weights)-1] >= 0) {
		return list{items: head.items[:n], weights: head.weights[:n]}, true
	}
	return mergeTail(head, sortedList(tail, len(head.items), 0), spare), false
}

// mergeTail merges two sorted lists over disjoint items, the tail's all
// above the head's: the previous window's list and the sorted list of
// the items appended since. The tail is a publish's handful of new
// items, so the head is copied in the runs between their places, not
// entry by entry.
func mergeTail(head, tail list, spare int) list {
	l := newList(len(head.items)+len(tail.items), spare)
	items, weights := l.items[:0], l.weights[:0]
	from := 0
	for j, w := range tail.weights {
		// A tail entry goes behind every head entry at least as heavy:
		// on equal weights the head's item is the smaller.
		rest := head.weights[from:]
		to := from + sort.Search(len(rest), func(i int) bool { return rest[i] < w })
		items = append(append(items, head.items[from:to]...), tail.items[j])
		weights = append(append(weights, head.weights[from:to]...), w)
		from = to
	}
	copy(l.items[len(items):], head.items[from:])
	copy(l.weights[len(weights):], head.weights[from:])
	return l
}

// allZero reports whether every weight is +0, bit for bit.
func allZero(weights []float64) bool {
	for _, w := range weights {
		if math.Float64bits(w) != 0 {
			return false
		}
	}
	return true
}

// sameBits reports whether two weight slabs hold identical bits. Shared
// storage — a model grown without widening the slab — answers without
// reading it.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i, x := range a {
		if math.Float64bits(x) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// ListsKept returns how many of the index's sorted lists, the floor list
// among them, were inherited from the previous generation's index (0 for
// a BuildIndexRange index).
func (ix *Index) ListsKept() int { return ix.kept }

// ListsShared returns how many of the inherited lists are the previous
// generation's own storage — unchanged, or one reslice longer — rather
// than a merged copy.
func (ix *Index) ListsShared() int { return ix.shared }

// TablesShared reports whether the transposed tables are the previous
// generation's own storage.
func (ix *Index) TablesShared() bool { return ix.tableShared }

// NumLists returns how many sorted lists the index holds: one per
// expanded topic outside the collapsed range, one per interval context,
// and the floor list when there are user topics to floor.
func (ix *Index) NumLists() int {
	n := ix.numTopics - (ix.ctxHi - ix.ctxLo) + len(ix.contexts)
	if ix.ctxLo > 0 {
		n++
	}
	return n
}

// ItemRange returns the global [lo, hi) item window the index covers.
// A BuildIndex index reports the whole catalog.
func (ix *Index) ItemRange() (lo, hi int) { return ix.itemLo, ix.itemLo + ix.numItems }

// Score computes S(u,t,v) = Σ_z ϑ_z·ϕ_zv for a query-weight vector, in
// O(K) via the transposed table. item is a global catalog index and
// must lie inside the index's window (always true for a full index).
// The sum runs over every topic in ascending order through the unrolled
// dotOrdered kernel; weights and topic masses are non-negative (the
// Eq. 22 monotone decomposition), so including zero-weight terms adds
// exact +0s and the value is bit-identical to the historical skip-zeros
// loop.
//
//tcam:hotpath
func (ix *Index) Score(query []float64, item int) float64 {
	k := ix.numTopics
	local := item - ix.itemLo
	return dotOrdered(query, ix.byItem[local*k:(local+1)*k])
}

// score32 is the float32 screening scorer: the same dot product as
// Score, read from the quantized table with reassociated float32
// accumulation. Its value is only valid as a screen under the index's
// screenScale/screenEps error bound, never as a returned score.
//
//tcam:hotpath
func (ix *Index) score32(query []float32, item int) float32 {
	k := ix.numTopics
	return dot32(query, ix.byItem32[item*k:(item+1)*k])
}

// Query answers the temporal top-k query (u, t) with the extended
// Threshold Algorithm. ts must be the scorer the index was built from.
// The result set and scores match BruteForce exactly (ties broken by
// ascending item index), but the algorithm stops after examining only
// as many items as the threshold bound requires. Scratch comes from the
// Searcher pool; the returned slice is freshly allocated and owned by
// the caller.
func (ix *Index) Query(ts model.TopicScorer, u, t, k int, exclude Exclude) ([]Result, Stats) {
	s := ix.AcquireSearcher()
	res, st := s.Query(ts, u, t, k, exclude)
	out := cloneResults(res)
	s.Release()
	return out, st
}

// cloneResults copies a searcher-owned result slice into caller-owned
// memory (nil for an empty result, matching historical behavior).
func cloneResults(res []Result) []Result {
	if len(res) == 0 {
		return nil
	}
	out := make([]Result, len(res))
	copy(out, res)
	return out
}

// listRef is one of the lists a query walks in the priority queue,
// keyed by the full ranking score of its head item.
type listRef struct {
	slot     int
	priority float64
}

// listHeap is a max-heap of listRefs (ties broken by slot for
// determinism). Heap operations are hand-rolled on the concrete element
// type: container/heap would box every listRef into an interface and
// allocate on each push.
type listHeap []listRef

//tcam:hotpath
func (h listHeap) less(a, b int) bool {
	if h[a].priority > h[b].priority {
		return true
	}
	if h[a].priority < h[b].priority {
		return false
	}
	return h[a].slot < h[b].slot
}

//tcam:hotpath
func (h *listHeap) push(x listRef) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

//tcam:hotpath
func (h *listHeap) pop() listRef {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		best := l
		if r := l + 1; r < n && s.less(r, l) {
			best = r
		}
		if !s.less(best, i) {
			break
		}
		s[i], s[best] = s[best], s[i]
		i = best
	}
	return top
}

// resultHeap keeps the best k results as a min-heap on (score, -item):
// the root is the current k-th best, evicted when something better
// arrives. Ties prefer smaller item indices, matching BruteForce. Like
// listHeap, operations are hand-rolled to stay allocation-free.
type resultHeap struct {
	k     int
	items []Result
}

// reset prepares the heap for a fresh query of size k, keeping the
// backing array.
//
//tcam:hotpath
func (h *resultHeap) reset(k int) {
	h.k = k
	h.items = h.items[:0]
}

func (h *resultHeap) Len() int { return len(h.items) }

//tcam:hotpath
func (h *resultHeap) less(a, b int) bool {
	if h.items[a].Score < h.items[b].Score {
		return true
	}
	if h.items[a].Score > h.items[b].Score {
		return false
	}
	return h.items[a].Item > h.items[b].Item
}

//tcam:hotpath
func (h *resultHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

//tcam:hotpath
func (h *resultHeap) down(i int) {
	n := len(h.items)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		best := l
		if r := l + 1; r < n && h.less(r, l) {
			best = r
		}
		if !h.less(best, i) {
			break
		}
		h.items[i], h.items[best] = h.items[best], h.items[i]
		i = best
	}
}

// min returns the current k-th best result. Only valid when Len() > 0.
//
//tcam:hotpath
func (h *resultHeap) min() Result { return h.items[0] }

// offer inserts r, evicting the worst element when the heap is full and
// r beats it.
//
//tcam:hotpath
func (h *resultHeap) offer(r Result) {
	if len(h.items) < h.k {
		h.items = append(h.items, r)
		h.up(len(h.items) - 1)
		return
	}
	worst := h.items[0]
	if r.Score > worst.Score || (r.Score >= worst.Score && r.Item < worst.Item) {
		h.items[0] = r
		h.down(0)
	}
}

// appendSorted drains the heap onto dst in descending-score (then
// ascending-item) order and returns the extended slice.
//
//tcam:hotpath
func (h *resultHeap) appendSorted(dst []Result) []Result {
	n := len(h.items)
	base := len(dst)
	dst = append(dst, h.items...) // reserve space; overwritten below
	for i := base + n - 1; i >= base; i-- {
		dst[i] = h.popMin()
	}
	return dst
}

// popMin removes and returns the worst retained result.
//
//tcam:hotpath
func (h *resultHeap) popMin() Result {
	x := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return x
}
