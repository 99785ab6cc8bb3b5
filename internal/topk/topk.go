// Package topk implements the paper's Section 4 query processing for
// temporal top-k recommendation: a brute-force ranker that scores every
// item, and the extended Threshold Algorithm (Algorithm 1, after Fagin
// et al.) that answers queries from K pre-sorted per-topic item lists,
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

	"tcam/internal/model"
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

// Index holds the K sorted per-topic item lists of Section 4.2 plus a
// transposed ϕ table for O(K) full-score evaluation. The table is dual:
// an exact float64 copy (byItem) answers the confirm step and the
// threshold bound, and a quantized float32 copy (byItem32) feeds the
// screening scan that filters candidates at half the memory traffic.
// Building from scratch is O(K·V·logV), parallelized across topics;
// BuildIndexFrom inherits what a previous generation's index already
// holds. Queries are read-only and safe for concurrent use.
type Index struct {
	numTopics int
	numItems  int // window size: number of items this index covers
	itemLo    int // global index of the window's first item (0 for a full index)
	lists     [][]entry
	byItem    []float64 // V×K transposed topic weights: ϕ_zv at [v*K+z]
	byItem32  []float32 // float32 quantization of byItem, same layout

	// topics[z] is the scorer's whole-catalog weight slab lists[z] was
	// sorted from; the next generation's BuildIndexFrom compares against
	// it to decide which lists it may inherit. kept counts the lists this
	// index itself inherited.
	topics [][]float64
	kept   int

	// screenScale and screenEps over-approximate the worst-case error of
	// the float32 screening dot product: for any item,
	// trueScore <= float64(score32)·screenScale + screenEps. A candidate
	// is sent to the exact float64 confirm whenever its screened score
	// could still reach the current k-th best under this bound, so the
	// screen can cause extra confirms but never a missed result. See
	// DESIGN.md §12 for the derivation.
	screenScale float64
	screenEps   float64
}

type entry struct {
	item   int32
	weight float64
}

// BuildIndex precomputes the sorted lists (and the transposed weight
// table) for every topic of ts. Zero-weight entries are kept: the lists
// must cover the catalog for the threshold bound to hold as k grows.
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
// entries per topic.
func BuildIndexRange(ts model.TopicScorer, lo, hi int) *Index {
	return BuildIndexFrom(nil, ts, lo, hi)
}

// BuildIndexFrom is BuildIndexRange given the index of the previous
// generation: whatever prev already holds that the new scorer leaves
// unchanged is inherited instead of re-derived, and the result equals
// BuildIndexRange(ts, lo, hi) field for field. prev is a hint, never an
// authority — nil, another window origin or a wider window simply
// inherit nothing.
//
// A topic's sorted list depends on nothing but that topic's weights
// over the window, and (weight desc, item asc) is a strict total order,
// so the sorted list of a weight vector is unique. Hence, per topic:
// when the new weights over prev's window are bit for bit the slab
// prev's list was sorted from, that list is the sorted order of the
// window's head, and merging in the sorted tail of items prev did not
// cover yields the one sorted list of the whole window; otherwise the
// topic is sorted from scratch. The choice is made from the weights
// alone — a frozen ϕ keeps every list across publishes, ITCAM's
// open-interval context re-sorts its one pseudo-topic.
//
// Work parallelizes in two passes: the lists fan out one topic per
// task, and the ϕ transpose fans out over item ranges so each worker
// writes a contiguous region of byItem (a topic-major split would
// interleave writes every K entries and thrash cache lines between
// workers).
func BuildIndexFrom(prev *Index, ts model.TopicScorer, lo, hi int) *Index {
	if lo < 0 || hi < lo || hi > ts.NumItems() {
		panic("topk: item window out of bounds")
	}
	k, v := ts.NumTopics(), hi-lo
	ix := &Index{
		numTopics: k,
		numItems:  v,
		itemLo:    lo,
		lists:     make([][]entry, k),
		topics:    make([][]float64, k),
		// 16× the analytic bound on the f32 screening error — relative
		// term (K+8)·2⁻²⁰ vs the true ≤(K+8)·2⁻²⁴, absolute slack far
		// above any subnormal underflow — so the screen is sound with
		// wide margin and the slack costs only the occasional extra
		// exact confirm.
		screenScale: 1 + float64(k+8)*0x1p-20,
		screenEps:   1e-35,
	}
	for z := 0; z < k; z++ {
		ix.topics[z] = ts.TopicItems(z)
	}
	head := 0 // items of the window prev's lists already order
	if prev != nil && prev.itemLo == lo && prev.numItems <= v {
		head = prev.numItems
	} else {
		prev = nil
	}
	// Entries and table rows are indexed by the local item offset within
	// the window; ascending local order is ascending global order, so
	// every tie-break below matches the full index.
	workers := model.Workers(0)
	kept := make([]bool, k)
	model.ParallelRanges(k, workers, func(_, zlo, zhi int) {
		for z := zlo; z < zhi; z++ {
			window := ix.topics[z][lo:hi]
			if prev != nil && z < prev.numTopics && sameBits(prev.topics[z][lo:lo+head], window[:head]) {
				ix.lists[z] = mergeTail(prev.lists[z], window)
				kept[z] = true
				continue
			}
			ix.lists[z] = sortedEntries(window, 0)
		}
	})
	for _, ok := range kept {
		if ok {
			ix.kept++
		}
	}
	if prev != nil && ix.kept == k && prev.numTopics == k && head == v {
		// Every column of the transposed tables is a kept topic's.
		ix.byItem, ix.byItem32 = prev.byItem, prev.byItem32
		return ix
	}
	ix.byItem = make([]float64, v*k)
	ix.byItem32 = make([]float32, v*k)
	model.ParallelRanges(v, workers, func(_, vlo, vhi int) {
		for item := vlo; item < vhi; item++ {
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

// sortedEntries returns the entries of window[from:] — local items
// from, from+1, … — in list order.
func sortedEntries(window []float64, from int) []entry {
	list := make([]entry, len(window)-from)
	for i := range list {
		list[i] = entry{item: int32(from + i), weight: window[from+i]}
	}
	slices.SortFunc(list, compareEntries)
	return list
}

// compareEntries is the list order: weight descending, ties by
// ascending item.
func compareEntries(a, b entry) int {
	if a.weight > b.weight {
		return -1
	}
	if a.weight < b.weight {
		return 1
	}
	return int(a.item) - int(b.item)
}

// mergeTail extends head — the sorted list of window[:len(head)] — to
// the sorted list of the whole window. With no tail the list itself is
// returned: lists are immutable, so generations may share one.
func mergeTail(head []entry, window []float64) []entry {
	if len(head) == len(window) {
		return head
	}
	tail := sortedEntries(window, len(head))
	list := make([]entry, 0, len(window))
	for len(head) > 0 && len(tail) > 0 {
		if compareEntries(head[0], tail[0]) < 0 {
			list, head = append(list, head[0]), head[1:]
		} else {
			list, tail = append(list, tail[0]), tail[1:]
		}
	}
	return append(append(list, head...), tail...)
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

// ListsKept returns how many of the index's sorted lists were inherited
// from the previous generation's index (0 for a BuildIndexRange index).
func (ix *Index) ListsKept() int { return ix.kept }

// NumTopics returns K, the number of sorted lists.
func (ix *Index) NumTopics() int { return ix.numTopics }

// NumItems returns the number of items the index covers: the catalog
// size for a full index, the window size for a BuildIndexRange index.
func (ix *Index) NumItems() int { return ix.numItems }

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
// Threshold Algorithm. ts must be the scorer the index was built from
// (only QueryWeights is consulted). The result set and scores match
// BruteForce exactly (ties broken by ascending item index), but the
// algorithm stops after examining only as many items as the threshold
// bound requires. Scratch comes from the Searcher pool; the returned
// slice is freshly allocated and owned by the caller.
func (ix *Index) Query(ts model.TopicScorer, u, t, k int, exclude Exclude) ([]Result, Stats) {
	s := ix.AcquireSearcher()
	res, st := s.Query(ts, u, t, k, exclude)
	out := cloneResults(res)
	s.Release()
	return out, st
}

// QueryWeights is Query for callers that already hold the ϑq vector
// (e.g. a server that caches per-user query vectors).
func (ix *Index) QueryWeights(query []float64, k int, exclude Exclude) ([]Result, Stats) {
	s := ix.AcquireSearcher()
	res, st := s.QueryWeights(query, k, exclude)
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

// threshold computes S_TA (Equation 23) from scratch: the maximum
// possible score of any unexamined item, aggregating each active list's
// current head weight. The hot path maintains this value incrementally
// and only calls the exact recompute to confirm termination.
//
//tcam:hotpath
func (ix *Index) threshold(query []float64, pos []int) float64 {
	var s float64
	for z, w := range query {
		if w <= 0 || pos[z] >= len(ix.lists[z]) {
			continue
		}
		s += w * ix.lists[z][pos[z]].weight
	}
	return s
}

// listRef is one sorted list in the priority queue, keyed by the full
// ranking score of its head item.
type listRef struct {
	topic    int
	priority float64
}

// listHeap is a max-heap of listRefs (ties broken by topic index for
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
	return h[a].topic < h[b].topic
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
