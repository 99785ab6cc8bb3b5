package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"tcam/internal/client"
	"tcam/internal/cuboid"
	"tcam/internal/dataset"
	"tcam/internal/eval"
	"tcam/internal/index"
	"tcam/internal/ingest"
	"tcam/internal/model"
	"tcam/internal/rescache"
	"tcam/internal/server"
	"tcam/internal/shard"
	"tcam/internal/topk"
	"tcam/internal/weighting"
)

// Per-layer metric names: <module>.<metric>. README.md says which
// end-to-end metric each is expected to move, and on which workload.
const (
	lHandleUS     = "server.handle_us"
	lAllocs       = "server.allocs_per_req"
	lBytes        = "server.bytes_per_req"
	lReloadMS     = "server.reload_ms"
	lStepFirstMS  = "server.updater_step_first_ms"
	lStepLastMS   = "server.updater_step_last_ms"
	lStepCover    = "server.updater_step_cover"
	lRestartMS    = "server.restart_ms"
	lHitRatio     = "rescache.hit_ratio"
	lStale        = "rescache.stale"
	lGetNS        = "rescache.get_ns"
	lPutNS        = "rescache.put_ns"
	lQueryUS      = "topk.query_us"
	lExamined     = "topk.items_examined"
	lListPops     = "topk.list_pops"
	lScreened     = "topk.screened_out"
	lCoordUS      = "shard.coordinator_us"
	lLegUS        = "shard.leg_us"
	lMergeUS      = "shard.merge_overhead_us"
	lPartialBytes = "shard.partial_bytes"
	lAppendUS     = "ingest.append_us"
	lRefreshUS    = "ingest.refresh_us"
	lReplayRate   = "ingest.replay_events_per_s"
	lApplyDeltaMS = "cuboid.apply_delta_ms"
	lCuboidMS     = "cuboid.build_ms"
	lAdvanceMS    = "index.advance_ms"
	lBuildIndexMS = "index.build_index_ms"
	lLoadMS       = "index.bundle_load_ms"
	lBundleBytes  = "index.bundle_bytes"
	lSaveMS       = "index.save_ms"
	lDatasetMS    = "dataset.load_ms"
	lWeightingMS  = "weighting.apply_ms"
	lIterMS       = "train.iter_ms"
	lEStepMS      = "train.estep_ms"
	lMStepMS      = "train.mstep_ms"
	lCellsPerS    = "train.cells_per_s"
	lEvalMS       = "eval.ta_eval_ms"
	lPrecision    = "eval.precision_at_10"
)

// traced replays the workload's generated inputs in this process with a
// span around each call into a layer's public function, fills the
// per-layer metrics and writes the spans out. Nothing here feeds an
// end-to-end number.
func (r *run) traced(workload, outDir string) error {
	tr := newTracer()
	var err error
	switch workload {
	case wServeHot, wServeCold:
		err = r.traceServe(tr, workload)
	case wServeSharded:
		err = r.traceSharded(tr)
	case wPublish:
		err = r.tracePublish(tr)
	case wTrain:
		err = r.traceTrain(tr)
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return err
	}
	r.res.Spans = tr.summarise()
	return tr.writeJSONL(filepath.Join(outDir, "trace-"+workload+".jsonl"))
}

// spanned times fn under a new span.
func spanned(tr *tracer, name string, parent, op int, fn func() error) error {
	id := tr.begin(name, parent, op)
	err := fn()
	tr.end(id)
	return err
}

// medianOf is the median per-call duration of the spans called name.
func medianOf(tr *tracer, name string, unit time.Duration) value {
	d := tr.durations(name, unit)
	q1, med, q3 := quartiles(d)
	return value{Value: med, Q1: q1, Q3: q3, Samples: len(d)}
}

// sink is a reusable http.ResponseWriter, so that allocations counted
// around ServeHTTP are the server's own.
type sink struct {
	h    http.Header
	buf  bytes.Buffer
	code int
}

func newSink() *sink                        { return &sink{h: make(http.Header), code: http.StatusOK} }
func (s *sink) Header() http.Header         { return s.h }
func (s *sink) WriteHeader(code int)        { s.code = code }
func (s *sink) Write(p []byte) (int, error) { return s.buf.Write(p) }
func (s *sink) reset()                      { clear(s.h); s.buf.Reset(); s.code = http.StatusOK }
func (s *sink) answer() (*answer, error) {
	if s.code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", s.code, bytes.TrimSpace(s.buf.Bytes()))
	}
	var a answer
	return &a, json.Unmarshal(s.buf.Bytes(), &a)
}

// healthOf reads a handler's /healthz in-process.
func healthOf(h http.Handler) (*health, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var out health
	return &out, json.Unmarshal(rec.Body.Bytes(), &out)
}

// bundleLayers spans what a serving process does with a bundle file
// before it can answer: load it, build the TA index, and (as Reload)
// build, precompute and swap.
func (r *run) bundleLayers(tr *tracer, b *index.Bundle, dir string, srv *server.Server) (*topk.Index, error) {
	path := filepath.Join(dir, "boot.tcam")
	if err := b.Save(path); err != nil {
		return nil, err
	}
	if err := spanned(tr, "index.bundle_load", 0, 0, func() error { _, err := index.Load(path); return err }); err != nil {
		return nil, err
	}
	if fi, err := os.Stat(path); err == nil {
		r.res.set(lBundleBytes, float64(fi.Size()))
	}
	var ix *topk.Index
	_ = spanned(tr, "index.build_index", 0, 0, func() error { ix = b.BuildIndex(); return nil })
	if err := spanned(tr, "server.reload", 0, 0, func() error { _, err := srv.Reload(b); return err }); err != nil {
		return nil, err
	}
	r.res.Metrics[lLoadMS] = medianOf(tr, "index.bundle_load", time.Millisecond)
	r.res.Metrics[lBuildIndexMS] = medianOf(tr, "index.build_index", time.Millisecond)
	r.res.Metrics[lReloadMS] = medianOf(tr, "server.reload", time.Millisecond)
	return ix, nil
}

// ---- serve_hot, serve_cold ----------------------------------------------

func (r *run) traceServe(tr *tracer, workload string) error {
	b, reqs, err := serveInputs(r.seed, r.seconds, workload)
	if err != nil {
		return err
	}
	srv, err := server.New(b, server.WithCache(cacheEntries), server.WithHotPrecompute(precomputeHot))
	if err != nil {
		return err
	}
	dir, err := r.env.dir(workload)
	if err != nil {
		return err
	}
	ix, err := r.bundleLayers(tr, b, dir, srv)
	if err != nil {
		return err
	}

	// The replay: one operation per request, the server's handler and a
	// direct TA query of the same (u, t, k, exclude) side by side.
	h0, err := healthOf(srv)
	if err != nil {
		return err
	}
	out := newSink()
	sr := ix.NewSearcher()
	var st struct{ examined, pops, screened int }
	ops := 0
	start := time.Now()
	for ; ops < maxTracedOps && time.Since(start) < r.window() && r.ctx.Err() == nil; ops++ {
		q := reqs[ops%len(reqs)]
		r.res.Attempted++
		root := tr.begin("op", 0, ops)
		hr := httptest.NewRequest(http.MethodGet, q.Path, nil)
		out.reset()
		id := tr.begin("server.handle", root, ops)
		srv.ServeHTTP(out, hr)
		tr.end(id)
		id = tr.begin("topk.query", root, ops)
		direct, qs := sr.Query(b.Scorer(), q.U, b.Grid.IntervalOf(q.Time), q.K, excludeOf(q))
		tr.end(id)
		a, err := out.answer()
		if err == nil {
			err = checkAnswer(b, q, a)
		}
		if err == nil && (!sameRanking(b, a, direct) || a.ItemsExamined != qs.ItemsExamined) {
			err = fmt.Errorf("%s: handler and direct TA query disagree", q.Path)
		}
		tr.end(root)
		if err != nil {
			r.res.Failed++
			r.res.flunk("%v", err)
			continue
		}
		st.examined += qs.ItemsExamined
		st.pops += qs.ListPops
		st.screened += qs.ScreenedOut
	}
	h1, err := healthOf(srv)
	if err != nil {
		return err
	}
	hitRatio, stale, err := cacheDelta(h0, h1)
	if err != nil {
		return err
	}
	r.res.set(lHitRatio, hitRatio)
	r.res.set(lStale, float64(stale))
	r.res.Metrics[lHandleUS] = medianOf(tr, "server.handle", time.Microsecond)
	r.res.Metrics[lQueryUS] = medianOf(tr, "topk.query", time.Microsecond)
	r.res.Metrics[lExamined] = value{Value: float64(st.examined) / float64(ops), Samples: ops}
	r.res.Metrics[lListPops] = value{Value: float64(st.pops) / float64(ops), Samples: ops}
	r.res.Metrics[lScreened] = value{Value: float64(st.screened) / float64(ops), Samples: ops}

	r.traceAllocs(srv, reqs[ops%len(reqs):])
	r.traceCache(tr, b, reqs[:ops])
	return nil
}

// traceAllocs counts the handler's heap allocations over requests built
// beforehand, written to a reused sink.
func (r *run) traceAllocs(srv *server.Server, reqs []req) {
	const n = 2000
	if len(reqs) > n {
		reqs = reqs[:n]
	}
	hrs := make([]*http.Request, len(reqs))
	for i, q := range reqs {
		hrs[i] = httptest.NewRequest(http.MethodGet, q.Path, nil)
	}
	out := newSink()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, hr := range hrs {
		out.reset()
		srv.ServeHTTP(out, hr)
	}
	runtime.ReadMemStats(&m1)
	r.res.Metrics[lAllocs] = value{Value: float64(m1.Mallocs-m0.Mallocs) / float64(len(hrs)), Samples: len(hrs)}
	r.res.Metrics[lBytes] = value{Value: float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(hrs)), Samples: len(hrs)}
}

// traceCache runs the workload's keys through a cache of the server's
// size: a Get per key, a Put per miss. A call takes tens of
// nanoseconds, so one span covers a chunk of calls.
func (r *run) traceCache(tr *tracer, b *index.Bundle, reqs []req) {
	const chunk = 1024
	cache := rescache.New[int](cacheEntries)
	keys := make([]rescache.Key, len(reqs))
	for i, q := range reqs {
		var exh rescache.SetHash
		for _, x := range q.Exclude {
			exh.Add(uint64(x))
		}
		keys[i] = rescache.Key{User: uint64(q.U), Time: int64(b.Grid.IntervalOf(q.Time)), K: int32(q.K),
			NumExclude: exh.Len(), ExcludeHash: exh.Sum()}
	}
	missed := make([]rescache.Key, 0, chunk)
	for lo := 0; lo < len(keys); lo += chunk {
		part := keys[lo:min(lo+chunk, len(keys))]
		missed = missed[:0]
		t0 := time.Now()
		for _, k := range part {
			if _, ok := cache.Get(1, k); !ok {
				missed = append(missed, k)
			}
		}
		t1 := time.Now()
		for i, k := range missed {
			cache.Put(1, k, i)
		}
		t2 := time.Now()
		tr.add("rescache.get", 0, lo/chunk, t0, t1, len(part))
		if len(missed) > 0 {
			tr.add("rescache.put", 0, lo/chunk, t1, t2, len(missed))
		}
	}
	r.res.Metrics[lGetNS] = medianOf(tr, "rescache.get", time.Nanosecond)
	r.res.Metrics[lPutNS] = medianOf(tr, "rescache.put", time.Nanosecond)
}

// ---- serve_sharded ------------------------------------------------------

// legTap wraps a shard's handler: a span per scatter leg, parented to
// the coordinator call in flight, and a count of the partial's bytes.
type legTap struct {
	next   http.Handler
	tr     *tracer
	parent *atomic.Int64 // span ID of the coordinator call in flight
	op     *atomic.Int64
	bytes  *atomic.Int64
}

type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	c.n.Add(int64(len(p)))
	return c.ResponseWriter.Write(p)
}

func (l legTap) ServeHTTP(w http.ResponseWriter, hr *http.Request) {
	id := l.tr.begin("shard.leg", int(l.parent.Load()), int(l.op.Load()))
	l.next.ServeHTTP(countingWriter{w, l.bytes}, hr)
	l.tr.end(id)
}

func (r *run) traceSharded(tr *tracer) error {
	b, reqs, err := serveInputs(r.seed, r.seconds, wServeSharded)
	if err != nil {
		return err
	}
	var parent, op, partial atomic.Int64
	half := len(b.Items) / 2
	var fleet []shard.ShardConfig
	for _, win := range [][2]int{{0, half}, {half, len(b.Items)}} {
		s, err := server.New(b, server.WithItemRange(win[0], win[1]))
		if err != nil {
			return err
		}
		ts := httptest.NewServer(legTap{next: s, tr: tr, parent: &parent, op: &op, bytes: &partial})
		defer ts.Close()
		fleet = append(fleet, shard.ShardConfig{BaseURL: ts.URL, Items: shard.Range{Lo: win[0], Hi: win[1]}})
	}
	// The coordinator as tcamshard's flag defaults configure it.
	coord, err := shard.New(shard.Config{
		Shards:       fleet,
		ShardTimeout: 2 * time.Second,
		Breaker:      client.BreakerConfig{FailureThreshold: 5, OpenTimeout: time.Second, Seed: 1},
		Hedger:       client.HedgerConfig{Quantile: 0.9, Default: 50 * time.Millisecond},
	})
	if err != nil {
		return err
	}
	or := newOracle(b)
	var overhead []float64
	ops, legs := 0, 0
	start := time.Now()
	for ; ops < maxTracedOps && time.Since(start) < r.window() && r.ctx.Err() == nil; ops++ {
		q := reqs[ops%len(reqs)]
		r.res.Attempted++
		names := make([]string, len(q.Exclude))
		for i, x := range q.Exclude {
			names[i] = b.Items[x]
		}
		root := tr.begin("op", 0, ops)
		id := tr.begin("shard.coordinator", root, ops)
		first := id
		op.Store(int64(ops))
		parent.Store(int64(id))
		resp, err := coord.Recommend(r.ctx, b.Users[q.U], q.Time, q.K, names)
		tr.end(id)
		tr.end(root)
		if err == nil {
			a := answer{ItemsExamined: resp.ItemsExamined}
			for _, rec := range resp.Recommendations {
				a.Recommendations = append(a.Recommendations, recommendation{rec.Item, rec.Score})
			}
			if err = checkAnswer(b, q, &a); err == nil && ops%oracleEvery == 0 {
				err = or.verify(q, &a)
			}
		}
		if err != nil {
			r.res.Failed++
			r.res.flunk("%v", err)
			continue
		}
		// Merge overhead: the coordinator's time beyond its slowest leg.
		// A hedged backup leg still running lands after the op and is
		// left out of this op's maximum.
		var slowest time.Duration
		for _, s := range tr.since(first) {
			if s.Name == "shard.leg" && s.End > 0 {
				legs++
				slowest = max(slowest, s.dur())
			}
		}
		overhead = append(overhead, float64(tr.get(id).dur()-slowest)/float64(time.Microsecond))
	}
	r.res.Metrics[lCoordUS] = medianOf(tr, "shard.coordinator", time.Microsecond)
	r.res.Metrics[lLegUS] = medianOf(tr, "shard.leg", time.Microsecond)
	q1, med, q3 := quartiles(overhead)
	r.res.Metrics[lMergeUS] = value{Value: med, Q1: q1, Q3: q3, Samples: len(overhead)}
	if legs > 0 {
		r.res.Metrics[lPartialBytes] = value{Value: float64(partial.Load()) / float64(legs), Samples: legs}
	}
	return nil
}

// ---- publish_under_read -------------------------------------------------

// shadow re-derives each publish from the layers' public functions, one
// span per call, in the order Updater.Step calls them. It keeps the same
// state Step keeps — vocabularies grown in log order, the stream cuboid,
// the consumed offset — so each call sees the input Step's call saw.
type shadow struct {
	srv          *server.Server
	boot         *index.Bundle
	users, items []string
	userIdx      map[string]int
	itemIdx      map[string]int
	grid         dataset.TimeGrid
	stream       *cuboid.Cuboid
	offset       int64
}

func newShadow(boot *index.Bundle, srv *server.Server) *shadow {
	return &shadow{
		srv: srv, boot: boot,
		users: append([]string(nil), boot.Users...), items: append([]string(nil), boot.Items...),
		userIdx: indexOf(boot.Users), itemIdx: indexOf(boot.Items),
		grid:   boot.Grid,
		stream: cuboid.NewBuilder(len(boot.Users), boot.Grid.Num, len(boot.Items)).Build(),
	}
}

func (s *shadow) step(tr *tracer, lg *ingest.Log, parent, op int) error {
	type event struct {
		u, t, v int
		score   float64
	}
	var evs []event
	numT := s.grid.Num
	if err := spanned(tr, "ingest.refresh", parent, op, func() error { _, err := lg.Refresh(); return err }); err != nil {
		return err
	}
	err := spanned(tr, "ingest.replay", parent, op, func() error {
		return lg.Replay(s.offset, func(_ int64, rec ingest.Record) error {
			ui, ok := s.userIdx[rec.User]
			if !ok {
				ui = len(s.users)
				s.userIdx[rec.User] = ui
				s.users = append(s.users, rec.User)
			}
			vi, ok := s.itemIdx[rec.Item]
			if !ok {
				vi = len(s.items)
				s.itemIdx[rec.Item] = vi
				s.items = append(s.items, rec.Item)
			}
			t := 0
			if rec.Time >= s.grid.Origin {
				t = int((rec.Time - s.grid.Origin) / s.grid.Length)
			}
			if t >= numT {
				numT = t + 1
			}
			evs = append(evs, event{ui, t, vi, rec.Score})
			return nil
		})
	})
	if err != nil {
		return err
	}
	var stream *cuboid.Cuboid
	err = spanned(tr, "cuboid.apply_delta", parent, op, func() error {
		d := cuboid.NewDelta(len(s.users), numT, len(s.items))
		for _, e := range evs {
			if err := d.Add(e.u, e.t, e.v, e.score); err != nil {
				return err
			}
		}
		var err error
		stream, err = s.stream.ApplyDelta(d)
		return err
	})
	if err != nil {
		return err
	}
	grid := s.grid
	grid.Num = numT
	var next *index.Bundle
	err = spanned(tr, "index.advance", parent, op, func() error {
		var err error
		next, err = s.boot.Advance(stream, grid, s.users, s.items, index.DefaultAdvanceConfig())
		return err
	})
	if err != nil {
		return err
	}
	if err := spanned(tr, "server.reload", parent, op, func() error { _, err := s.srv.Reload(next); return err }); err != nil {
		return err
	}
	s.stream, s.grid, s.offset = stream, grid, s.offset+int64(len(evs))
	return nil
}

func (r *run) tracePublish(tr *tracer) error {
	boot, batches, reqs, err := publishInputs(r.seed, r.seconds)
	if err != nil {
		return err
	}
	dir, err := r.env.dir(wPublish)
	if err != nil {
		return err
	}
	cached := []server.Option{server.WithCache(cacheEntries), server.WithHotPrecompute(precomputeHot)}
	live, err := server.New(boot, cached...)
	if err != nil {
		return err
	}
	mirror, err := server.New(boot, cached...)
	if err != nil {
		return err
	}
	if _, err := r.bundleLayers(tr, boot, dir, mirror); err != nil {
		return err
	}
	lg, err := ingest.Open(filepath.Join(dir, "log"))
	if err != nil {
		return err
	}
	up, err := server.NewUpdater(live, lg, boot, server.UpdaterConfig{})
	if err != nil {
		return err
	}
	sh := newShadow(boot, mirror)
	h0, err := healthOf(live)
	if err != nil {
		return err
	}
	cycles := min(r.seconds*1000/appendEvery, len(batches))
	readsPerCycle := readRate * appendEvery / 1000
	out := newSink()
	next := 0
	var stepIDs []int
	for c := 0; c < cycles && r.ctx.Err() == nil; c++ {
		r.res.Attempted++
		root := tr.begin("op", 0, c)
		if err := spanned(tr, "ingest.append", root, c, func() error { _, err := lg.Append(batches[c]...); return err }); err != nil {
			return err
		}
		id := tr.begin("server.updater_step", root, c)
		_, err := up.Step()
		tr.end(id)
		if err != nil {
			return fmt.Errorf("updater step %d: %w", c, err)
		}
		stepIDs = append(stepIDs, id)
		if err := sh.step(tr, lg, root, c); err != nil {
			return fmt.Errorf("shadow step %d: %w", c, err)
		}
		// The reads that fall due in this cycle, against the fresh epoch.
		for i := 0; i < readsPerCycle; i, next = i+1, next+1 {
			q := reqs[next%len(reqs)]
			r.res.Attempted++
			hr := httptest.NewRequest(http.MethodGet, q.Path, nil)
			out.reset()
			_ = spanned(tr, "server.handle", root, c, func() error { live.ServeHTTP(out, hr); return nil })
			a, err := out.answer()
			if err == nil {
				err = checkAnswer(boot, q, a)
			}
			if err != nil {
				r.res.Failed++
				r.res.flunk("%v", err)
			}
		}
		tr.end(root)
	}
	h1, err := healthOf(live)
	if err != nil {
		return err
	}
	hitRatio, stale, err := cacheDelta(h0, h1)
	if err != nil {
		return err
	}
	r.res.set(lHitRatio, hitRatio)
	r.res.set(lStale, float64(stale))

	// The decomposition is only worth reading if it computes what Step
	// computes: both servers must now give the same bytes.
	for _, q := range reqs[:min(64, len(reqs))] {
		r.res.Attempted++
		a, b := httptest.NewRecorder(), httptest.NewRecorder()
		live.ServeHTTP(a, httptest.NewRequest(http.MethodGet, q.Path, nil))
		mirror.ServeHTTP(b, httptest.NewRequest(http.MethodGet, q.Path, nil))
		if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
			r.res.Failed++
			r.res.flunk("%s: layer-by-layer publish and Updater.Step disagree", q.Path)
		}
	}

	// A restart as the process sees it: load, build, replay everything.
	err = spanned(tr, "server.restart", 0, cycles, func() error {
		b, err := index.Load(filepath.Join(dir, "boot.tcam"))
		if err != nil {
			return err
		}
		s, err := server.New(b, cached...)
		if err != nil {
			return err
		}
		relog, err := ingest.Open(filepath.Join(dir, "log"))
		if err != nil {
			return err
		}
		u, err := server.NewUpdater(s, relog, b, server.UpdaterConfig{})
		if err != nil {
			return err
		}
		_, err = u.Step()
		return err
	})
	if err != nil {
		return err
	}
	events := 0
	id := tr.begin("ingest.replay_all", 0, cycles)
	err = lg.Replay(0, func(int64, ingest.Record) error { events++; return nil })
	tr.end(id)
	if err != nil {
		return err
	}

	first, last := tr.get(stepIDs[0]).dur(), tr.get(stepIDs[len(stepIDs)-1]).dur()
	replayAll := tr.get(id).dur()
	var steps, parts time.Duration
	for _, s := range tr.since(0) {
		switch {
		case s.Name == "server.updater_step":
			steps += s.dur()
		case s.Parent != 0 && (s.Name == "ingest.refresh" || s.Name == "ingest.replay" || s.Name == "cuboid.apply_delta" || s.Name == "index.advance" || s.Name == "server.reload"):
			parts += s.dur()
		}
	}
	r.res.set(lStepFirstMS, float64(first)/float64(time.Millisecond))
	r.res.set(lStepLastMS, float64(last)/float64(time.Millisecond))
	r.res.set(lStepCover, float64(parts)/float64(steps))
	r.res.set(lReplayRate, float64(events)/replayAll.Seconds())
	r.res.Metrics[lAppendUS] = medianOf(tr, "ingest.append", time.Microsecond)
	r.res.Metrics[lRefreshUS] = medianOf(tr, "ingest.refresh", time.Microsecond)
	r.res.Metrics[lApplyDeltaMS] = medianOf(tr, "cuboid.apply_delta", time.Millisecond)
	r.res.Metrics[lAdvanceMS] = medianOf(tr, "index.advance", time.Millisecond)
	r.res.Metrics[lReloadMS] = medianOf(tr, "server.reload", time.Millisecond)
	r.res.Metrics[lRestartMS] = medianOf(tr, "server.restart", time.Millisecond)
	r.res.Metrics[lHandleUS] = medianOf(tr, "server.handle", time.Microsecond)
	return nil
}

// ---- train_batch --------------------------------------------------------

func (r *run) traceTrain(tr *tracer) error {
	dir, err := r.env.dir(wTrain)
	if err != nil {
		return err
	}
	inPath, outPath := filepath.Join(dir, "train.jsonl"), filepath.Join(dir, "out.tcam")
	h, err := trainInputs(r.seed, inPath)
	if err != nil {
		return err
	}
	// The steps of one tcamtrain run, back to back for the window.
	var b *index.Bundle
	var emTime, passTime time.Duration
	start := time.Now()
	for pass := 0; (pass == 0 || time.Since(start) < r.window()) && r.ctx.Err() == nil; pass++ {
		r.res.Attempted++
		root := tr.begin("op", 0, pass)
		var log *dataset.Interactions
		if err := spanned(tr, "dataset.load", root, pass, func() error { var err error; log, err = dataset.LoadJSONLFile(inPath); return err }); err != nil {
			return err
		}
		var data *cuboid.Cuboid
		var grid dataset.TimeGrid
		if err := spanned(tr, "cuboid.build", root, pass, func() error { var err error; data, grid, err = log.Grid(intervalDays); return err }); err != nil {
			return err
		}
		_ = spanned(tr, "weighting.apply", root, pass, func() error { data = weighting.WeightCuboid(data); return nil })
		em := tr.begin("train.em", root, pass)
		// The engine reports each iteration's phases as durations; the
		// spans are laid out backwards from the moment the hook fires.
		hook := func(it model.IterStat) {
			end := time.Now()
			begin := end.Add(-it.Wall)
			iter := tr.add("train.iter", em, pass, begin, end, 1)
			tr.add("train.estep", iter, pass, begin, begin.Add(it.EStep), 1)
			tr.add("train.mstep", iter, pass, begin.Add(it.EStep), begin.Add(it.EStep+it.MStep), 1)
		}
		b, err = trainCuboid(data, grid, log, trainK1, trainK2, trainIters, hook)
		tr.end(em)
		if err != nil {
			return err
		}
		if err := spanned(tr, "index.save", root, pass, func() error { return b.Save(outPath) }); err != nil {
			return err
		}
		tr.end(root)
		emTime += tr.get(em).dur()
		passTime += tr.get(root).dur()
	}
	if err := spanned(tr, "index.bundle_load", 0, 0, func() error { var err error; b, err = index.Load(outPath); return err }); err != nil {
		return err
	}
	if fi, err := os.Stat(outPath); err == nil {
		r.res.set(lBundleBytes, float64(fi.Size()))
	}
	var ix *topk.Index
	_ = spanned(tr, "index.build_index", 0, 0, func() error { ix = b.BuildIndex(); return nil })
	queries := h.evalQueries(b)
	var p10 float64
	_ = spanned(tr, "eval.ta_eval", 0, 0, func() error {
		p10 = eval.EvaluateTA(ix, b.Scorer(), queries, 10, 0).At(10).Precision
		return nil
	})
	if !(p10 > 0) {
		r.res.Failed++
		r.res.flunk("precision@10 is %v on %d held-out queries", p10, len(queries))
	}
	iter := medianOf(tr, "train.iter", time.Millisecond)
	r.res.Metrics[lIterMS] = iter
	r.res.Metrics[lEStepMS] = medianOf(tr, "train.estep", time.Millisecond)
	r.res.Metrics[lMStepMS] = medianOf(tr, "train.mstep", time.Millisecond)
	r.res.Metrics[lCellsPerS] = value{Value: float64(h.cells) / (iter.Value / 1000), Samples: iter.Samples}
	r.res.Metrics[lDatasetMS] = medianOf(tr, "dataset.load", time.Millisecond)
	r.res.Metrics[lCuboidMS] = medianOf(tr, "cuboid.build", time.Millisecond)
	r.res.Metrics[lWeightingMS] = medianOf(tr, "weighting.apply", time.Millisecond)
	r.res.Metrics[lSaveMS] = medianOf(tr, "index.save", time.Millisecond)
	r.res.Metrics[lLoadMS] = medianOf(tr, "index.bundle_load", time.Millisecond)
	r.res.Metrics[lBuildIndexMS] = medianOf(tr, "index.build_index", time.Millisecond)
	r.res.Metrics[lEvalMS] = medianOf(tr, "eval.ta_eval", time.Millisecond)
	r.res.set(lPrecision, p10)
	r.res.report("train.em_share", "ratio", float64(emTime)/float64(passTime))
	return nil
}
