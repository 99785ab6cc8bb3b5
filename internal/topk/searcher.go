package topk

import (
	"fmt"
	"sync"

	"tcam/internal/model"
)

// Searcher holds the per-query scratch of the extended Threshold
// Algorithm — the walked lists with their weights and cursors, an
// epoch-stamped seen table, the quantized query vector, the list
// priority queue and the result heap — so steady-state queries allocate
// nothing. A Searcher is bound to one Index at a time and is NOT safe
// for concurrent use; concurrent callers take one each from the pool
// via AcquireSearcher.
//
// Result slices returned by a Searcher are owned by it and valid only
// until its next query or Release; callers that retain results must
// copy them (Index.Query and Index.QueryBatch do).
type Searcher struct {
	ix *Index
	// The lists the current query walks: the floor list, then in
	// expanded-topic order every topic list with a positive weight, the
	// interval's collapsed context among them where the context topics
	// would be.
	slots []slot

	seen    []uint32  // epoch stamps: seen[v] == epoch ⇔ v examined
	epoch   uint32    // current query's stamp; bumping it clears seen in O(1)
	query   []float64 // scratch for the model.ContextScorer fast path
	query32 []float32 // float32 quantization of the active ϑq vector
	pq      listHeap
	results resultHeap
	out     []Result
}

// slot is one walked list: its query weight and the cursor into it.
type slot struct {
	list
	w   float64
	pos int
}

// searchers recycles Searcher scratch across queries — and across
// indexes: a pooled searcher is bound to no index, so the pool never
// keeps a replaced generation's index reachable (a pool inside the
// Index would, until the garbage collector has twice cleared pools),
// and a hot reload does not throw the scratch away.
var searchers sync.Pool

// NewSearcher returns a fresh reusable searcher bound to the index. Most
// callers should prefer AcquireSearcher, which recycles scratch through
// the pool.
func (ix *Index) NewSearcher() *Searcher {
	s := &Searcher{}
	s.bind(ix)
	return s
}

// bind points the searcher at ix, growing its scratch to ix's shape.
// Stamps left in a reused seen table are older than every epoch the
// searcher will issue, so they read as unseen.
func (s *Searcher) bind(ix *Index) {
	s.ix = ix
	if k := ix.numTopics; cap(s.query) < k {
		s.query = make([]float64, k)
		s.query32 = make([]float32, k)
	} else {
		s.query, s.query32 = s.query[:k], s.query32[:k]
	}
	if v := ix.numItems; cap(s.seen) < v {
		s.seen = make([]uint32, v)
	} else {
		s.seen = s.seen[:v]
	}
}

// AcquireSearcher takes a searcher from the pool, creating one when the
// pool is empty, and binds it to the index. Pair with Release.
//
//tcam:hotpath
func (ix *Index) AcquireSearcher() *Searcher {
	if s, ok := searchers.Get().(*Searcher); ok {
		s.bind(ix)
		return s
	}
	return ix.NewSearcher()
}

// Release returns the searcher to the pool. The searcher (and any
// result slice it returned) must not be used afterwards.
//
//tcam:hotpath
func (s *Searcher) Release() {
	s.ix = nil
	clear(s.slots[:cap(s.slots)]) // they alias the index's lists
	searchers.Put(s)
}

// Query answers the temporal top-k query (u, t), writing results into
// searcher-owned scratch. When ts implements model.ContextScorer the ϑq
// vector is materialized into scratch bind pre-sized to the index's
// topic count, making the whole call allocation-free at steady state.
// The result set and scores match BruteForce exactly (ties broken by
// ascending item index); the returned slice is valid until the
// searcher's next query or Release.
//
//tcam:hotpath
func (s *Searcher) Query(ts model.TopicScorer, u, t, k int, exclude Exclude) ([]Result, Stats) {
	if cs, ok := ts.(model.ContextScorer); ok {
		//tcamvet:ignore hotpathstrict one dispatch per query, outside the item loop; scorer is polymorphic by design
		context := cs.QueryWeightsInto(u, t, s.query)
		return s.search(s.query, t, context, k, exclude)
	}
	//tcamvet:ignore hotpathstrict cold fallback for scorers without the Into fast path
	return s.search(ts.QueryWeights(u, t), t, 0, k, exclude)
}

// open gives l a slot in the query when it can contribute: a positive
// weight and at least one item.
//
//tcam:hotpath
func (s *Searcher) open(l list, w float64) {
	if w > 0 && len(l.items) > 0 {
		s.slots = append(s.slots, slot{list: l, w: w})
	}
}

// threshold computes S_TA (Equation 23) from scratch: the maximum
// possible score of any unexamined item, aggregating each walked list's
// current head weight — inflated by the index's bound margin, because
// Score adds the context topics one by one where this adds their
// collapsed sum, and adds the user topics where this adds the floor and
// the residuals. The hot path maintains the plain sum incrementally and
// only calls the exact recompute to confirm termination.
//
//tcam:hotpath
func (s *Searcher) threshold() float64 {
	var sum float64
	for i := range s.slots {
		if l := &s.slots[i]; l.pos < len(l.weights) {
			sum += l.w * l.weights[l.pos]
		}
	}
	return sum*s.ix.boundScale + boundEps
}

// search runs Algorithm 1 for the ϑq vector query, whose context half —
// when the index collapsed one — is context·ω_t.
//
// Scratch tricks keeping the loop allocation- and rescan-free without
// changing results:
//
//   - seen is a stamp table: bumping epoch invalidates every stamp at
//     once, so reuse needs no O(V) clear (except on the ~never-hit
//     uint32 wraparound).
//   - the threshold S_TA is maintained incrementally — each pop changes
//     only the popped list's head, an O(1) delta instead of the O(K)
//     resum. Floating-point drift from the running sum could terminate a
//     hair early, so the exact O(K) recompute confirms the bound before
//     the loop actually breaks; an inflated running value merely delays
//     the cheap check and never affects correctness.
//
// The float32 fast scan (see DESIGN.md §12): list priorities come from
// the quantized score32 kernel, and when the result heap is full a
// popped candidate's screened score — its priority, already computed at
// push time — is checked against the k-th best under the index's error
// bound before paying for the exact float64 score. Priorities only
// steer pop order (TA is correct under any pop order once the exact
// threshold bound holds), every score that enters the result heap comes
// from the exact float64 confirm over the full-width table row, and the
// screen bound over-covers the f32 error, so results stay bit-identical
// to the pure float64 path.
//
//tcam:hotpath
func (s *Searcher) search(query []float64, t int, context float64, k int, exclude Exclude) ([]Result, Stats) {
	ix := s.ix
	st := Stats{}
	if k <= 0 {
		return nil, st
	}
	if len(query) != ix.numTopics {
		panic(fmt.Sprintf("topk: query weights length %d, index has %d topics", len(query), ix.numTopics))
	}

	s.epoch++
	if s.epoch == 0 { // stamp wraparound: reset the table once per 2^32 queries
		clear(s.seen[:cap(s.seen)])
		s.epoch = 1
	}

	q32 := s.query32
	for z, w := range query {
		q32[z] = float32(w)
	}

	// Exhausted or zero-weight lists get no slot: they are in neither
	// the priority queue nor the threshold. The user topics' least weight
	// m walks the floor list and each user topic's list only what its
	// weight has above m: Σ w_z·ϕ_zv = m·S_v + Σ (w_z − m)·ϕ_zv, every
	// term non-negative, so the heads still bound every unseen item. A
	// flat θu leaves each residual exactly +0, and those lists never open.
	s.slots = s.slots[:0]
	m := 0.0
	if ix.ctxLo > 0 {
		m = query[0]
		for _, w := range query[1:ix.ctxLo] {
			if w < m {
				m = w
			}
		}
		s.open(ix.floor, m)
	}
	for z := 0; z < ix.ctxLo; z++ {
		s.open(ix.lists[z], query[z]-m)
	}
	if len(ix.contexts) > 0 {
		s.open(ix.contexts[t], context)
	}
	for z := ix.ctxHi; z < ix.numTopics; z++ {
		s.open(ix.lists[z], query[z])
	}
	s.pq = s.pq[:0]
	threshold := 0.0
	for i := range s.slots {
		l := &s.slots[i]
		s.pq.push(listRef{slot: i, priority: float64(ix.score32(q32, int(l.items[0])))})
		threshold += l.w * l.weights[0]
	}
	if len(s.pq) == 0 {
		return nil, st
	}

	s.results.reset(k)
	results := &s.results

	for len(s.pq) > 0 {
		// Early termination (Lines 18–21 of Algorithm 1): the k-th
		// result beats every unseen item's best possible score. Strict
		// inequality keeps ties exact: an unseen item could equal the
		// threshold, and the deterministic tie-break might prefer it.
		if results.Len() == k && results.min().Score > threshold {
			threshold = s.threshold() // exact confirm (see above)
			if results.min().Score > threshold {
				break
			}
		}
		ref := s.pq.pop()
		l := &s.slots[ref.slot]
		item := int(l.items[l.pos]) // local window offset
		st.ListPops++
		if s.seen[item] != s.epoch {
			s.seen[item] = s.epoch
			// Exclude filters and returned results speak global catalog
			// indices; a full index has itemLo == 0 so this is the
			// historical behavior there.
			gitem := item + ix.itemLo
			if exclude == nil || !exclude(gitem) {
				// f32 screen: ref.priority is this item's screened score.
				// Only candidates that could still reach the k-th best
				// under the error bound pay for the exact f64 score.
				if results.Len() < k || ref.priority*ix.screenScale+ix.screenEps >= results.min().Score {
					st.ItemsExamined++
					results.offer(Result{Item: gitem, Score: ix.Score(query, gitem)})
				} else {
					st.ScreenedOut++
				}
			}
		}
		// Advance this list's cursor, fold the head change into the
		// running threshold, and re-queue it (Lines 28–33).
		threshold -= l.w * l.weights[l.pos]
		l.pos++
		if l.pos < len(l.items) {
			threshold += l.w * l.weights[l.pos]
			ref.priority = float64(ix.score32(q32, int(l.items[l.pos])))
			s.pq.push(ref)
		}
	}
	s.out = results.appendSorted(s.out[:0])
	if len(s.out) == 0 {
		return nil, st
	}
	return s.out, st
}
