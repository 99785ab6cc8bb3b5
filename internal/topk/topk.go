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
// table, both heaps) and is recycled through a sync.Pool. The package
// answers one query at a time; batching, cancellation and fault sites
// belong to the server that drives it. All paths return results
// bit-identical to BruteForce.
package topk

import (
	"math"
	"slices"
	"sort"

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
	// ScreenedOut is always 0: TA confirms every candidate exactly and
	// screens none out. It stays only because the repository
	// benchmark's per-layer report (bench/layers.go) reads it; ROADMAP
	// item 8e removes it together with that metric.
	ScreenedOut int
}

// Exclude filters candidate items; a nil Exclude admits everything. The
// evaluation protocol uses it to keep a user's training items out of
// their recommendations.
type Exclude func(item int) bool

// BruteForce ranks every item with the model's ScoreAll and returns the
// top k by score (ties broken by ascending item index).
func BruteForce(r model.Recommender, u, t, k int, exclude Exclude) ([]Result, Stats) {
	st := Stats{}
	if k <= 0 {
		return nil, st
	}
	n := r.NumItems()
	scores := make([]float64, n)
	r.ScoreAll(u, t, scores)
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

// Index holds the sorted item lists of Section 4.2 plus an item-major ϕ
// table for O(K) full-score evaluation. There is one list per expanded
// topic, except that the topics the scorer weighs by the interval alone
// (model.TopicScorer's context range) are replaced by one collapsed list
// per interval, sorted by Σ_x ω_t[x]·ϕ_x,v: the sum itself, not the sum
// of K2 heads, bounds the context half of an unseen item's score. A
// scorer with user topics below that range also gets a floor list,
// sorted by Σ_z ϕ_zv over the user topics, that carries the weight
// those topics share. The table is the scorer's float64 ItemTopics,
// borrowed: the exact confirm reads its full-width rows, so a confirmed
// score is BruteForce's bit for bit. Building from scratch is
// O(K·V·logV), parallelized across lists; BuildIndexFrom inherits what
// a previous generation's index already holds. Queries are read-only
// and safe for concurrent use.
type Index struct {
	scorer model.TopicScorer // built from, and the only scorer Query accepts

	numTopics int       // K, the expanded topic space: the width of a table row
	numItems  int       // window size: number of items this index covers
	itemLo    int       // global index of the window's first item (0 for a full index)
	table     []float64 // the scorer's ItemTopics: ϕ_zv at [v*K+z], v global

	// lists[z] is expanded topic z's list, empty for the context topics
	// [ctxLo, ctxHi), which contexts[t] — interval t's collapsed list —
	// stands in for. floor, held when the scorer names user topics
	// (ctxLo > 0), is sorted by S_v = Σ_{z<ctxLo} ϕ_zv: a query
	// walks it with the least user-topic weight m and each user-topic
	// list with what its weight has above m, so a flat θu opens one list,
	// not K1.
	lists        []list
	contexts     []list
	floor        list
	ctxLo, ctxHi int

	// kept counts the lists this index itself inherited, and shared
	// those of them that are prev's own storage.
	kept   int
	shared int

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

// BuildIndex precomputes the sorted lists for ts. Zero-weight entries
// are kept: the lists must cover the catalog for the threshold bound to
// hold as k grows.
func BuildIndex(ts model.TopicScorer) *Index {
	return BuildIndexFrom(nil, ts, 0, ts.NumItems())
}

// BuildIndexFrom builds an index for ts covering only the items in
// [lo, hi) — the per-shard item window of the scatter-gather serving
// tier. The windowed index answers the same queries as a full one
// restricted to its window: results carry global item indices, Exclude
// callbacks receive global item indices, and scores are the exact
// full-model scores, so merging disjoint windows' top-k lists by (score
// desc, item asc) reproduces the monolithic top-k bit for bit (the
// global top-k is a subset of the union of per-window top-k's). What
// the index builds scales with the window, not the catalog: lists hold
// hi−lo entries each. The exact confirm reads the scorer's
// whole-catalog table, which it borrows.
//
// prev is the index of the previous generation: whatever it already
// holds that the new scorer leaves unchanged is inherited instead of
// re-derived, and the result equals BuildIndexFrom(nil, ts, lo, hi)
// field for field. prev is a hint, never an authority — nil, another
// window origin, a wider window or another context range simply inherit
// nothing.
//
// A sorted list depends on nothing but its weights over the window, and
// (weight desc, item asc) is a strict total order, so the sorted list
// of a weight vector is unique. Hence, per list: when the weights over
// prev's window are bit for bit the ones prev's list was sorted from,
// that list is the sorted order of the window's head, and merging in
// the sorted tail of items prev did not cover yields the one sorted
// list of the whole window; otherwise the list is sorted from scratch.
// New items that all weigh +0 — a stream-born item under a frozen ϕ —
// need no merge: extend admits them by reslicing prev's storage, moving
// no byte of it.
// A topic's weights are its column of the table. A collapsed context's
// weights are a function of ω_t and the context topics' columns, each
// term computed per item, so it is unchanged exactly when those are —
// which is read off the column comparison every topic gets anyway, once
// per build, plus T short rows. The floor list's weights are a per-item
// sum of the user topics' columns, so it is unchanged exactly when all
// of those are. The choice is made from the weights alone: a frozen ϕ
// keeps every topic list, the floor and every context whose θ′ row
// stood still across publishes; the refit open interval re-sorts its
// one list.
//
// Lists sorted afresh are built columnGroup to a task, each group from
// one pass over the window's table rows; every inherited list is a task
// of its own, and the tasks are dealt out round-robin across workers.
func BuildIndexFrom(prev *Index, ts model.TopicScorer, lo, hi int) *Index {
	k, v, table := ts.NumTopics(), hi-lo, ts.ItemTopics()
	if lo < 0 || hi < lo || hi > ts.NumItems() || len(table) < hi*k {
		panic("topk: item window out of bounds")
	}
	ix := &Index{
		scorer:    ts,
		numTopics: k,
		numItems:  v,
		itemLo:    lo,
		table:     table,
		lists:     make([]list, k),
		// More than twice the analytic bound (3K+4)·2⁻⁵³ on how far
		// rounding can lift an unseen item's Score above a threshold that
		// sums the context half and the floored user half in other
		// groupings.
		boundScale: 1 + float64(k+8)*0x1p-50,
	}
	if ix.ctxLo, ix.ctxHi = ts.ContextTopics(); ix.ctxHi > ix.ctxLo {
		ix.contexts = make([]list, ts.NumIntervals())
	}
	head := 0 // items of the window prev's lists already order
	if prev != nil && prev.itemLo == lo && prev.numItems <= v && prev.ctxLo == ix.ctxLo && prev.ctxHi == ix.ctxHi {
		head = prev.numItems
	} else {
		prev = nil
	}
	// A window that has outgrown prev's will grow again: what has to be
	// laid out for it gets room behind its end. A build without prev
	// leaves none — a boot index is exactly as large as its catalog.
	spare := 0
	if prev != nil && head < v {
		spare = model.SpareItems(v)
	}
	// Entries are indexed by the local item offset within the window;
	// ascending local order is ascending global order, so every
	// tie-break below matches the full index. same[z]: topic z's weights
	// over prev's window are prev's.
	same := ix.sameColumns(prev, lo, lo+head)
	ctxSame := prev != nil && !slices.Contains(same[ix.ctxLo:ix.ctxHi], false)
	floorSame := prev != nil && !slices.Contains(same[:ix.ctxLo], false)
	// One job per list: the topics, the contexts, then the floor.
	var kept, fresh []*job
	for z := 0; z < k; z++ {
		j := &job{weight: func(row []float64) float64 { return row[z] }, dst: &ix.lists[z]}
		switch {
		case z >= ix.ctxLo && z < ix.ctxHi:
			// Walked only through the contexts.
		case same[z]:
			j.head, kept = prev.lists[z], append(kept, j)
		default:
			fresh = append(fresh, j)
		}
	}
	for t := range ix.contexts {
		j := &job{weight: ix.collapsed(t), dst: &ix.contexts[t]}
		// A collapse reads ω_t only through w > 0 and w·ϕ, and weights that
		// compare equal differ at most in the sign of a zero, which both skip.
		if ctxSame && t < len(prev.contexts) && slices.Equal(prev.scorer.ContextWeights(t), ts.ContextWeights(t)) {
			j.head, kept = prev.contexts[t], append(kept, j)
		} else {
			fresh = append(fresh, j)
		}
	}
	if ix.ctxLo > 0 {
		j := &job{weight: ix.floorWeight, dst: &ix.floor}
		if floorSame {
			j.head, kept = prev.floor, append(kept, j)
		} else {
			fresh = append(fresh, j)
		}
	}
	var tasks []func(gather *[]float64)
	for _, j := range kept {
		tasks = append(tasks, func(*[]float64) { *j.dst, j.shared = extend(j.head, ix.weights(j.weight, lo+head, hi), spare) })
	}
	for g := 0; g < len(fresh); g += columnGroup {
		group := fresh[g:min(g+columnGroup, len(fresh))]
		tasks = append(tasks, func(gather *[]float64) { ix.sortGroup(group, spare, gather) })
	}
	workers := model.Workers(0)
	model.ParallelRanges(workers, workers, func(w, _, _ int) {
		var gather []float64 // this worker's group weights, reused across its groups
		for i := w; i < len(tasks); i += workers {
			tasks[i](&gather)
		}
	})
	ix.kept = len(kept)
	for _, j := range kept {
		if j.shared {
			ix.shared++
		}
	}
	return ix
}

// sameColumns reports, per topic, whether its weights over the catalog
// items [from, to) are prev's bit for bit — never for a topic prev does
// not have. A table that is prev's own storage is not read.
func (ix *Index) sameColumns(prev *Index, from, to int) []bool {
	same := make([]bool, ix.numTopics)
	if prev == nil {
		return same
	}
	n := min(ix.numTopics, prev.numTopics)
	for z := range same[:n] {
		same[z] = true
	}
	if from == to || ix.numTopics == prev.numTopics && &prev.table[0] == &ix.table[0] {
		return same
	}
	for v := from; v < to; v++ {
		a, b := prev.row(v), ix.row(v)
		for z := range same[:n] {
			same[z] = same[z] && math.Float64bits(a[z]) == math.Float64bits(b[z])
		}
	}
	return same
}

// job is one list BuildIndexFrom builds: weight is the list's weight of
// an item, read off its table row; head, for a kept list, is prev's list
// it extends, and shared reports whether the result is head's storage.
type job struct {
	weight func(row []float64) float64
	dst    *list
	head   list
	shared bool
}

// columnGroup is how many fresh lists sortGroup builds from one pass
// over the table's rows: the columns a group reads sit in a row's few
// cache lines, so gathering them together reads the table once, not
// once a list.
const columnGroup = 4

// row returns item v's table row.
func (ix *Index) row(v int) []float64 {
	k := ix.numTopics
	return ix.table[v*k : (v+1)*k]
}

// weights returns a list's weights of the catalog items [from, to).
func (ix *Index) weights(weight func(row []float64) float64, from, to int) []float64 {
	out := make([]float64, to-from)
	for i := range out {
		out[i] = weight(ix.row(from + i))
	}
	return out
}

// sortGroup builds the lists of jobs over the whole window, gathering
// their weights in one pass over its table rows into *gather, the
// worker's buffer: grown when a group needs more, reused otherwise, as
// sortedList copies the weights out.
func (ix *Index) sortGroup(jobs []*job, spare int, gather *[]float64) {
	n := ix.numItems
	if cap(*gather) < len(jobs)*n {
		*gather = make([]float64, len(jobs)*n)
	}
	weights := (*gather)[:len(jobs)*n]
	for i := 0; i < n; i++ {
		row := ix.row(ix.itemLo + i)
		for c, j := range jobs {
			weights[c*n+i] = j.weight(row)
		}
	}
	for c, j := range jobs {
		*j.dst = sortedList(weights[c*n:(c+1)*n], 0, spare)
	}
}

// collapsed returns interval t's context weight Σ_x ω_t[x]·ϕ_x,v of an
// item: the context topics added in ascending order, zero-weight ones
// skipped, each item on its own — so any sub-range of a collapse is the
// collapse of the sub-range.
func (ix *Index) collapsed(t int) func(row []float64) float64 {
	omega, lo := ix.scorer.ContextWeights(t), ix.ctxLo
	return func(row []float64) float64 {
		var s float64
		for x, w := range omega {
			if w > 0 {
				s += float64(w * row[lo+x])
			}
		}
		return s
	}
}

// floorWeight returns an item's floor-list weight S_v = Σ_{z<ctxLo} ϕ_zv:
// the user topics added in ascending order, so items no user topic
// weighs get +0.
func (ix *Index) floorWeight(row []float64) float64 {
	var s float64
	for _, p := range row[:ix.ctxLo] {
		s += p
	}
	return s
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

// ListsKept returns how many of the index's sorted lists, the floor list
// among them, were inherited from the previous generation's index (0 for
// an index built without one).
func (ix *Index) ListsKept() int { return ix.kept }

// ListsShared returns how many of the inherited lists are the previous
// generation's own storage — unchanged, or one reslice longer — rather
// than a merged copy.
func (ix *Index) ListsShared() int { return ix.shared }

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
// O(K) via the scorer's item-major table. item is a global catalog
// index.
// The sum runs over every topic in ascending order through the unrolled
// dotOrdered kernel; weights and topic masses are non-negative (the
// Eq. 22 monotone decomposition), so including zero-weight terms adds
// exact +0s and the value is bit-identical to the historical skip-zeros
// loop.
//
//tcam:hotpath
func (ix *Index) Score(query []float64, item int) float64 {
	return dotOrdered(query, ix.row(item))
}

// score2 is Score for two items at once, through the paired dotOrdered2
// kernel: each value is Score's bit for bit.
//
//tcam:hotpath
func (ix *Index) score2(query []float64, a, b int) (float64, float64) {
	return dotOrdered2(query, ix.row(a), ix.row(b))
}

// Query answers the temporal top-k query (u, t) with the extended
// Threshold Algorithm. ts must be the scorer the index was built from;
// any other panics.
// The result set and scores match BruteForce exactly (ties broken by
// ascending item index), but the algorithm stops after examining only
// as many items as the threshold bound requires. Scratch comes from the
// Searcher pool; the returned slice is freshly allocated and owned by
// the caller.
func (ix *Index) Query(ts model.TopicScorer, u, t, k int, exclude Exclude) ([]Result, Stats) {
	s := ix.AcquireSearcher()
	defer s.Release()
	res, st := s.Query(ts, u, t, k, exclude)
	if len(res) == 0 {
		return nil, st
	}
	return slices.Clone(res), st
}

// listRef is one of the lists a query walks in the priority queue,
// keyed by its weighted head w·weights[pos] — the term the list adds to
// the threshold.
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
