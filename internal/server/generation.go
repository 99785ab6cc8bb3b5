package server

// The one query path (DESIGN.md §9): every door — /recommend, each
// /recommend/batch entry, /shard/query, publish-time precompute and the
// tcam.Recommender facade — hands an api.Query to a Generation, which
// resolves it (names → dense indices, bounded k, deduplicated exclusion
// set, interval, cache key) and answers it (cache probe → Threshold
// Algorithm → cache insert). The doors only parse and render; the
// /recommend body a door renders is kept on the cache entry it hit.

import (
	"bytes"
	"context"
	"net/http"
	"sync"

	"tcam/internal/api"
	"tcam/internal/dataset"
	"tcam/internal/faultinject"
	"tcam/internal/index"
	"tcam/internal/model"
	"tcam/internal/rescache"
	"tcam/internal/topk"
)

// Generation is one immutable generation of serving state: a bundle,
// the TA index built over it and the name → dense-index vocabularies.
// Handlers load it once per request and Reload publishes a fresh one
// atomically, so no request sees a half-swapped mix. Safe for
// concurrent use.
type Generation struct {
	bundle  *index.Bundle
	idx     *topk.Index
	users   *dataset.Vocab // the bundle's names, indexed for this generation alone
	items   *dataset.Vocab
	version uint64 // the cache epoch: 1 for the boot bundle, +1 per reload

	// The Server's cache and hot-user sketch; nil when caching is off.
	cache *rescache.Cache[Answer]
	hot   *rescache.HotTracker
}

// NewGeneration builds an uncached generation over b's full catalog.
func NewGeneration(b *index.Bundle) *Generation {
	return newGeneration(b, b.BuildIndex())
}

func newGeneration(b *index.Bundle, idx *topk.Index) *Generation {
	return &Generation{
		bundle:  b,
		idx:     idx,
		users:   dataset.NewVocab(b.Users),
		items:   dataset.NewVocab(b.Items),
		version: 1,
	}
}

// User resolves a user name to its dense index; an unknown one is a
// 404 *api.Error.
func (g *Generation) User(name string) (int, error) {
	u, ok := g.users.Lookup(name)
	if !ok {
		return 0, api.Errorf(http.StatusNotFound, "unknown user %q", name)
	}
	return u, nil
}

// Answer is one ranked result, the interval the query's time fell in
// and the work the TA did. Body, when set, is the /recommend body that
// renders it (Scratch.body). A cached Answer is immutable.
type Answer struct {
	Results       []topk.Result
	Interval      int
	ItemsExamined int
	Body          []byte
}

// Scratch is the pooled working set of one query against one
// Generation. An Answer is valid until the Scratch that produced it is
// released or answers again: the searcher it holds owns the results.
type Scratch struct {
	// Query is a parse target for the door's use; its Exclude backing
	// array survives pooling, so steady-state parsing does not allocate.
	Query api.Query

	gen    *Generation
	ex     excludeSet
	filter topk.Exclude          // ex.has, bound once so a query does not allocate it
	sr     *topk.Searcher        // held from the first search until Release
	resp   api.RecommendResponse // render buffer of the /recommend door
	out    []byte                // resp rendered
	part   api.ShardPartial      // render buffer of the /shard/query door

	// The resolved query.
	u, t, k int
	exclude topk.Exclude // nil or filter
	key     rescache.Key
	hit     rescache.Ref[Answer] // the entry the last Answer hit, or zero
}

// scratches recycles Scratch across requests and generations. A pooled
// Scratch points at no generation, so the pool never keeps a replaced
// generation — bundle, index, vocabularies — reachable after a reload.
var scratches sync.Pool

// Acquire takes a Scratch from the pool and binds it to the generation;
// pair with Release.
func (g *Generation) Acquire() *Scratch {
	sc, ok := scratches.Get().(*Scratch)
	if !ok {
		sc = &Scratch{}
		sc.filter = sc.ex.has
	}
	sc.gen = g
	return sc
}

// Release returns the scratch and its searcher to their pools, dropping
// the generation and the request's strings so the pool does not pin
// them.
func (sc *Scratch) Release() {
	if sc.sr != nil {
		sc.sr.Release()
		sc.sr = nil
	}
	clear(sc.Query.Exclude)
	clear(sc.part.Results)
	sc.Query, sc.resp.User, sc.part.User = api.Query{Exclude: sc.Query.Exclude[:0]}, "", ""
	if cap(sc.out) > api.MaxPooledBuf {
		sc.out = nil
	}
	sc.gen, sc.hit = nil, rescache.Ref[Answer]{}
	scratches.Put(sc)
}

// Answer resolves q and answers it from the cache or the index — the
// one executor behind every door, and the only place the cache is
// probed: a lookup in the generation's epoch, counted in the hot-user
// sketch, and a plain miss when caching is off. Failures are *api.Error.
func (sc *Scratch) Answer(q *api.Query) (Answer, error) {
	sc.hit = rescache.Ref[Answer]{}
	if err := sc.resolve(q); err != nil {
		return Answer{}, err
	}
	if g := sc.gen; g.cache != nil {
		g.hot.Observe(uint64(sc.u))
		if a, ref, ok := g.cache.Lookup(g.version, sc.key); ok {
			sc.hit = ref
			return a, nil
		}
	}
	a, _ := sc.search()
	return a, nil
}

// resolve validates q and turns its names into the dense query the
// index and the cache speak. Excludes are deduplicated while resolving
// (unknown names dropped), so the set hash is canonical: exclude=a,a,b
// and exclude=b,a share one cache entry.
func (sc *Scratch) resolve(q *api.Query) error {
	if err := q.Normalize(); err != nil {
		return err
	}
	g := sc.gen
	u, err := g.User(q.User)
	if err != nil {
		return err
	}
	var exh rescache.SetHash
	sc.exclude = nil
	if len(q.Exclude) > 0 {
		sc.ex.reset(len(g.bundle.Items))
		for _, id := range q.Exclude {
			if v, ok := g.items.Lookup(id); ok && !sc.ex.has(v) {
				sc.ex.add(v)
				exh.Add(uint64(v))
			}
		}
		sc.exclude = sc.filter
	}
	sc.u, sc.t, sc.k = u, g.bundle.Grid.IntervalOf(q.Time), q.K
	sc.key = topkKey(u, sc.t, sc.k, &exh)
	return nil
}

// topkKey builds the cache identity of a resolved query. u is the
// dense user index (exact, no hash collisions); exh must have been fed
// the deduplicated resolved exclude item indices.
//
//tcam:hotpath
func topkKey(u int, t int, k int, exh *rescache.SetHash) rescache.Key {
	return rescache.Key{
		User:        uint64(u),
		Time:        int64(t),
		K:           int32(k),
		NumExclude:  exh.Len(),
		ExcludeHash: exh.Sum(),
	}
}

// search runs the Threshold Algorithm for the resolved query and caches
// a deep copy of the answer (the searcher recycles its slice) — the only
// place the cache is inserted into. The entry carries no body: it gets
// one when it is first hit (Scratch.body). It also returns what the
// search cost.
func (sc *Scratch) search() (Answer, topk.Stats) {
	g := sc.gen
	if sc.sr == nil {
		sc.sr = g.idx.AcquireSearcher()
	}
	results, st := sc.sr.Query(g.bundle.Scorer(), sc.u, sc.t, sc.k, sc.exclude)
	a := Answer{Results: results, Interval: sc.t, ItemsExamined: st.ItemsExamined}
	if g.cache != nil {
		cached := a
		cached.Results = append([]topk.Result(nil), results...)
		g.cache.Put(g.version, sc.key, cached)
	}
	return a, st
}

// body is the /recommend body of a, the Answer this scratch just gave:
// the entry's own bytes on a hit that carries them, and otherwise
// rendered into the scratch. An entry's first hit in its epoch keeps a
// copy on the entry — the only promotion, which swaps exactly the entry
// that was hit and nothing else — so every later hit is one write. A
// missed or warmed answer's entry keeps no body: only entries that are
// hit carry bytes. ok is false for an answer no JSON renders (a
// non-finite score), which the door answers through api.WriteJSON.
func (sc *Scratch) body(a *Answer) ([]byte, bool) {
	if a.Body != nil {
		return a.Body, true
	}
	b, ok := sc.render(a)
	if ok && sc.hit != (rescache.Ref[Answer]{}) {
		kept := *a
		kept.Body = bytes.Clone(b)
		sc.gen.cache.Promote(sc.hit, kept)
	}
	return b, ok
}

// render writes a's /recommend body into the scratch with
// api.AppendResponse — WriteJSON's own appender, so a stored body and
// a rendered one are the same bytes. The user name is the resolved
// user's, which is the one the query named.
//
//tcam:hotpath
func (sc *Scratch) render(a *Answer) ([]byte, bool) {
	g := sc.gen
	sc.resp = api.RecommendResponse{
		User: g.bundle.Users[sc.u], Interval: a.Interval, ItemsExamined: a.ItemsExamined,
		Recommendations: g.AppendRecs(sc.resp.Recommendations[:0], a.Results),
	}
	body, ok := api.AppendResponse(sc.out[:0], &sc.resp)
	sc.out = body
	return body, ok
}

// BatchAnswer is one AnswerBatch entry, its Results caller-owned. Err is
// the entry's own failure; Done is false when the batch was cancelled
// before the entry ran.
type BatchAnswer struct {
	Answer
	Err  error
	Done bool
}

// AnswerBatch answers queries by position: contiguous chunks fan out
// across CPUs, each worker holding one Scratch and answering its entries
// one by one exactly as a single query is. Cancellation is cooperative:
// a worker checks ctx between entries and leaves the rest of its chunk
// not Done, so a completed entry is never half-answered.
func (g *Generation) AnswerBatch(ctx context.Context, queries []api.Query) []BatchAnswer {
	out := make([]BatchAnswer, len(queries))
	model.ParallelRanges(len(queries), model.Workers(0), func(_, lo, hi int) {
		sc := g.Acquire()
		defer sc.Release()
		for i := lo; i < hi; i++ {
			faultinject.Fire("server.batch.query")
			if ctx.Err() != nil {
				return
			}
			a, err := sc.Answer(&queries[i])
			// The next Answer recycles a searched result; a cached one is
			// shared and immutable, but the two are not told apart here.
			a.Results = append([]topk.Result(nil), a.Results...)
			out[i] = BatchAnswer{Answer: a, Err: err, Done: true}
		}
	})
	return out
}

// AppendRecs renders ranked results as public recommendations.
func (g *Generation) AppendRecs(dst []api.Recommendation, results []topk.Result) []api.Recommendation {
	for _, res := range results {
		dst = append(dst, api.Recommendation{Item: g.bundle.Items[res.Item], Score: res.Score})
	}
	return dst
}

// excludeSet is a reusable catalog-sized exclusion filter. Membership is
// an epoch stamp, so recycling it is an O(1) epoch bump instead of an
// O(V) clear or a fresh per-request map.
type excludeSet struct {
	stamp []uint32
	epoch uint32
}

//tcam:hotpath
func (e *excludeSet) add(v int) { e.stamp[v] = e.epoch }

//tcam:hotpath
func (e *excludeSet) has(v int) bool { return e.stamp[v] == e.epoch }

// reset empties the set for a catalog of n items. The stamps are
// allocated on first use — exclude-free traffic never pays for them —
// and again when a reload has grown the catalog past them; a fresh
// table is all zeros, below every epoch still to come.
func (e *excludeSet) reset(n int) {
	if len(e.stamp) < n {
		e.stamp = make([]uint32, n)
	}
	e.epoch++
	if e.epoch == 0 { // stamp wraparound: reset once per 2^32 uses
		clear(e.stamp)
		e.epoch = 1
	}
}
