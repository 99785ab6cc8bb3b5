// Package server exposes a trained TCAM bundle as an HTTP JSON API —
// the online-deployment surface of the paper's Section 4: temporal
// top-k queries answered by the Threshold Algorithm over the
// precomputed per-topic index.
//
// Endpoints:
//
//	GET  /healthz                  liveness + model metadata + bundle version
//	GET  /readyz                   readiness (503 while draining)
//	GET  /recommend?user=&time=&k= temporal top-k for a user at a time
//	POST /recommend/batch          many top-k queries in one request
//	POST /shard/query              partial top-k for a shard coordinator
//	POST /admin/reload             hot-swap the bundle from the configured source
//	GET  /topics/{z}?n=            top items of an expanded topic
//	GET  /users/{id}/lambda        the user's learned mixing weight
//
// The three query endpoints are doors onto one query path
// (generation.go). The serving state lives in an immutable Generation
// behind an atomic pointer, so a hot reload swaps everything at once
// while in-flight requests keep the view they started with; see
// lifecycle.go and DESIGN.md §9.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"tcam/internal/api"
	"tcam/internal/index"
	"tcam/internal/topk"
)

// Request bounds: the entries of one /recommend/batch, and the body
// bytes of /recommend/batch and /shard/query.
const (
	maxBatchQueries = 1024
	maxBatchBody    = 8 << 20
	maxShardBody    = 1 << 20
)

// New builds a Server (and its TA index) from a bundle; opts configure
// the in-flight limits, the reload source, the logger, the cache.
func New(b *index.Bundle, opts ...Option) (*Server, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	s := &Server{recLimit: NewLimiter(DefaultMaxInflight), batchLimit: NewLimiter(DefaultMaxInflightBatch)}
	s.Shell = NewShell(nil, s.health, s.ready, s.ReloadFromSource)
	for _, opt := range opts {
		opt(s)
	}
	if err := s.validateWindow(b); err != nil {
		return nil, err
	}
	s.snap.Store(s.generation(b, 1))
	s.Door("/recommend", http.MethodGet, "server.recommend", s.recLimit, s.on(recommend))
	s.Door("/recommend/batch", http.MethodPost, "server.batch", s.batchLimit, s.on(recommendBatch))
	s.Door("/shard/query", http.MethodPost, "server.shard", s.recLimit, s.on(shardQuery))
	s.Handle("/admin/reload", http.MethodPost, s.handleAdminReload)
	s.Handle("/topics/", http.MethodGet, s.handleTopic)
	s.Handle("/users/", http.MethodGet, s.handleUser)
	return s, nil
}

// generation builds one serving generation of b for this server. A
// non-empty item window builds the TA index over just that slice of
// the catalog — shard mode — while vocabularies stay global so queries
// speak global item names; the zero window means the full catalog. The
// serving generation's index, when there is one, is the hint the new
// index inherits unchanged lists from (DESIGN.md §6).
func (s *Server) generation(b *index.Bundle, version uint64) *Generation {
	lo, hi := s.itemLo, s.itemHi
	if lo == 0 && hi == 0 {
		hi = len(b.Items)
	}
	var serving *topk.Index
	if sn := s.snap.Load(); sn != nil {
		serving = sn.idx
	}
	g := newGeneration(b, topk.BuildIndexFrom(serving, b.Scorer(), lo, hi))
	g.version, g.cache, g.hot = version, s.cache, s.hot
	return g
}

func (s *Server) snapshot() *Generation { return s.snap.Load() }

// health is the server's /healthz payload.
func (s *Server) health() interface{} {
	sn := s.snapshot()
	resp := api.Health{
		Status:    "ok",
		ModelKind: string(sn.bundle.Kind()),
		Users:     len(sn.bundle.Users),
		Items:     len(sn.bundle.Items),
		Intervals: sn.bundle.Grid.Num,
		Topics:    sn.bundle.Scorer().NumTopics(),
		Version:   sn.version,
		Draining:  s.draining.Load(),
		Ingest:    s.ingestHealth(time.Now()),
		Cache:     s.cacheHealth(sn),
	}
	if s.itemLo != 0 || s.itemHi != 0 {
		resp.ItemRange = &api.Range{Lo: s.itemLo, Hi: s.itemHi}
	}
	return resp
}

// on hands a query door the generation current when the request starts:
// one load, so the whole request sees one snapshot.
func (s *Server) on(serve func(http.ResponseWriter, *http.Request, *Generation)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { serve(w, r, s.snapshot()) }
}

// recommend is the public single-query door: the query arrives as a GET
// form and the answer leaves as item names and scores.
func recommend(w http.ResponseWriter, r *http.Request, g *Generation) {
	sc := g.Acquire()
	defer sc.Release()
	q := &sc.Query
	err := q.ParseForm(r.URL.Query())
	var a Answer
	if err == nil {
		a, err = sc.Answer(q)
	}
	if err != nil {
		api.Fail(w, err, http.StatusInternalServerError)
		return
	}
	// Encoding a pointer into the scratch saves boxing a copy per request.
	sc.resp = api.RecommendResponse{
		User: q.User, Interval: a.Interval, ItemsExamined: a.ItemsExamined,
		Recommendations: g.AppendRecs(sc.resp.Recommendations[:0], a.Results),
	}
	api.WriteJSON(w, http.StatusOK, &sc.resp)
}

// shardQuery is the coordinator-facing door (a monolith's window is the
// full catalog): the query arrives as a JSON body and the answer leaves
// as a partial top-k with global item indices, the window and version.
func shardQuery(w http.ResponseWriter, r *http.Request, g *Generation) {
	sc := g.Acquire()
	defer sc.Release()
	q := &sc.Query
	err := readBody(w, r, maxShardBody, "shard query", q)
	var a Answer
	if err == nil {
		a, err = sc.Answer(q)
	}
	if err != nil {
		api.Fail(w, err, http.StatusInternalServerError)
		return
	}
	lo, hi := g.idx.ItemRange()
	resp := api.ShardPartial{
		User:          q.User,
		Interval:      a.Interval,
		ItemLo:        lo,
		ItemHi:        hi,
		Version:       g.version,
		Results:       make([]api.PartialResult, 0, len(a.Results)),
		ItemsExamined: a.ItemsExamined,
	}
	for _, res := range a.Results {
		resp.Results = append(resp.Results, api.PartialResult{
			Item: res.Item, Name: g.bundle.Items[res.Item], Score: res.Score,
		})
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// readBody decodes a body that is one JSON value of at most limit bytes
// (the cap bounds what the decoder will even read): 413 over the cap,
// 400 malformed — which anything but white space after the value is.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, what string, dst interface{}) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	err := dec.Decode(dst)
	if err == nil {
		switch _, err = dec.Token(); err {
		case io.EOF:
			return nil
		case nil:
			err = errors.New("trailing data after the JSON value")
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return api.Errorf(http.StatusRequestEntityTooLarge, "%s body exceeds %d bytes", what, limit)
	}
	return api.Errorf(http.StatusBadRequest, "bad %s body: %v", what, err)
}

// batchReqPool recycles decoded batch requests; encoding/json reuses
// the Queries backing array when its capacity suffices, so steady-state
// batches skip the per-entry slice growth.
var batchReqPool = sync.Pool{New: func() interface{} { return new(api.BatchRequest) }}

// recommendBatch is the bulk door. Invalid entries fail individually
// via their Error field; the batch itself only fails on malformed JSON
// or size. A cancelled request returns the completed prefix with
// "truncated": true, or 503 when nothing completed.
func recommendBatch(w http.ResponseWriter, r *http.Request, sn *Generation) {
	req := batchReqPool.Get().(*api.BatchRequest)
	defer func() {
		// Drop per-entry pointers so pooled capacity doesn't pin strings.
		clear(req.Queries)
		req.Queries = req.Queries[:0]
		batchReqPool.Put(req)
	}()
	if err := readBody(w, r, maxBatchBody, "batch", req); err != nil {
		api.Fail(w, err, http.StatusInternalServerError)
		return
	}
	if len(req.Queries) == 0 {
		api.WriteError(w, http.StatusBadRequest, "batch needs at least one query")
		return
	}
	if len(req.Queries) > maxBatchQueries {
		api.WriteError(w, http.StatusBadRequest, fmt.Sprintf("batch limited to %d queries", maxBatchQueries))
		return
	}
	answers := sn.AnswerBatch(r.Context(), req.Queries)
	// One arena backs every query's Recommendations: a single sized
	// allocation (plus capped windows so a stray append can't alias a
	// neighbour) instead of one grown slice per query.
	total, done := 0, 0
	for i := range answers {
		total += len(answers[i].Results)
		if done == i && answers[i].Done {
			done++
		}
	}
	arena := make([]api.Recommendation, 0, total)
	resp := api.BatchResponse{Results: make([]api.RecommendResponse, len(answers))}
	for i := range answers {
		a, out := &answers[i], &resp.Results[i]
		out.User = req.Queries[i].User
		if a.Err != nil {
			out.Error = a.Err.Error()
			continue
		}
		out.Interval, out.ItemsExamined = a.Interval, a.ItemsExamined
		start := len(arena)
		arena = sn.AppendRecs(arena, a.Results)
		out.Recommendations = arena[start:len(arena):len(arena)]
	}
	if r.Context().Err() != nil {
		// Cancelled mid-batch: keep the longest fully-answered prefix.
		if done == 0 {
			api.WriteError(w, http.StatusServiceUnavailable, "request cancelled")
			return
		}
		resp.Results = resp.Results[:done]
		resp.Truncated = true
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// topicResponse is the /topics/{z} payload.
type topicResponse struct {
	Topic    int                  `json:"topic"`
	Kind     string               `json:"kind"`
	TopItems []api.Recommendation `json:"top_items"`
}

func (s *Server) handleTopic(w http.ResponseWriter, r *http.Request) {
	sn := s.snapshot()
	raw := strings.TrimPrefix(r.URL.Path, "/topics/")
	z, err := strconv.Atoi(raw)
	scorer := sn.bundle.Scorer()
	if err != nil || z < 0 || z >= scorer.NumTopics() {
		api.WriteError(w, http.StatusNotFound, fmt.Sprintf("topic must be in [0,%d)", scorer.NumTopics()))
		return
	}
	n := api.DefaultK
	if rawN := r.URL.Query().Get("n"); rawN != "" {
		n, err = strconv.Atoi(rawN)
		if err != nil || n <= 0 || n > api.MaxK {
			api.WriteError(w, http.StatusBadRequest, fmt.Sprintf("n must be in [1,%d]", api.MaxK))
			return
		}
	}
	api.WriteJSON(w, http.StatusOK, topicResponse{
		Topic: z, Kind: sn.topicKind(z), TopItems: sn.AppendRecs(nil, sn.TopicItems(z, n)),
	})
}

// topicKind labels an expanded-topic index as user- or time-oriented.
func (sn *Generation) topicKind(z int) string {
	m := sn.bundle.Model
	switch {
	case z < m.K1():
		return "user-oriented"
	case m.K2() == 0:
		return "interval-context"
	case z < m.K1()+m.K2():
		return "time-oriented"
	default:
		return "background"
	}
}

// lambdaResponse is the /users/{id}/lambda payload.
type lambdaResponse struct {
	User string `json:"user"`
	// Lambda is the personal-interest influence probability λu; the
	// temporal-context influence is 1−λu.
	Lambda float64 `json:"lambda"`
}

func (s *Server) handleUser(w http.ResponseWriter, r *http.Request) {
	sn := s.snapshot()
	rest := strings.TrimPrefix(r.URL.Path, "/users/")
	parts := strings.Split(rest, "/")
	if len(parts) != 2 || parts[1] != "lambda" {
		api.WriteError(w, http.StatusNotFound, "want /users/{id}/lambda")
		return
	}
	u, err := sn.User(parts[0])
	if err != nil {
		api.Fail(w, err, http.StatusInternalServerError)
		return
	}
	api.WriteJSON(w, http.StatusOK, lambdaResponse{User: parts[0], Lambda: sn.bundle.Model.Lambda(u)})
}

// TopicItems ranks the n highest-probability items of expanded topic z.
func (g *Generation) TopicItems(z, n int) []topk.Result {
	top, _ := topk.BruteForce(weightModel{g.bundle.Scorer().TopicItems(z)}, 0, 0, n, nil)
	return top
}

// weightModel ranks a bare weight vector through the topk machinery.
type weightModel struct{ weights []float64 }

func (m weightModel) Name() string              { return "topic" }
func (m weightModel) NumItems() int             { return len(m.weights) }
func (m weightModel) Score(_, _, v int) float64 { return m.weights[v] }
