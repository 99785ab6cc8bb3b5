package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tcam/internal/index"
	"tcam/internal/topk"
)

// answer is the /recommend payload, the same from a server and from a
// coordinator.
type answer struct {
	User            string           `json:"user"`
	Interval        int              `json:"interval"`
	Recommendations []recommendation `json:"recommendations"`
	ItemsExamined   int              `json:"items_examined"`
}

type recommendation struct {
	Item  string  `json:"item"`
	Score float64 `json:"score"`
}

// excludeOf is the request's exclude list as the filter the top-k
// layer takes; the lists hold at most eight items.
func excludeOf(q req) topk.Exclude {
	if len(q.Exclude) == 0 {
		return nil
	}
	return func(v int) bool {
		for _, x := range q.Exclude {
			if x == v {
				return true
			}
		}
		return false
	}
}

// sameRanking reports whether a rendered answer is, bit for bit, the
// ranking a direct call into the top-k layer returned.
func sameRanking(b *index.Bundle, a *answer, want []topk.Result) bool {
	if len(a.Recommendations) != len(want) {
		return false
	}
	for i, w := range want {
		got := a.Recommendations[i]
		if got.Item != b.Items[w.Item] || math.Float64bits(got.Score) != math.Float64bits(w.Score) {
			return false
		}
	}
	return true
}

// checkAnswer is the structural check every response gets: exactly k
// items, scores non-increasing, no excluded item present.
func checkAnswer(b *index.Bundle, q req, a *answer) error {
	if len(a.Recommendations) != q.K {
		return fmt.Errorf("%s: %d items, want %d", q.Path, len(a.Recommendations), q.K)
	}
	for i, r := range a.Recommendations {
		if i > 0 && r.Score > a.Recommendations[i-1].Score {
			return fmt.Errorf("%s: score rises at rank %d", q.Path, i)
		}
		for _, x := range q.Exclude {
			if r.Item == b.Items[x] {
				return fmt.Errorf("%s: excluded item %s at rank %d", q.Path, r.Item, i)
			}
		}
	}
	return nil
}

// oracle compares sampled answers bit for bit with a brute-force scan
// of the same bundle loaded in this process: that one equality covers
// TA ≡ brute force, cached ≡ uncached and sharded ≡ monolith.
type oracle struct {
	b    *index.Bundle
	memo map[string][]topk.Result // by request path: hot keys repeat
}

func newOracle(b *index.Bundle) *oracle { return &oracle{b: b, memo: make(map[string][]topk.Result)} }

func (o *oracle) verify(q req, a *answer) error {
	want, ok := o.memo[q.Path]
	if !ok {
		want, _ = topk.BruteForce(o.b.Scorer(), q.U, o.b.Grid.IntervalOf(q.Time), q.K, excludeOf(q))
		o.memo[q.Path] = want
	}
	if !sameRanking(o.b, a, want) {
		return fmt.Errorf("%s: answer %v differs from brute force %v", q.Path, a.Recommendations, want)
	}
	return nil
}

// sampled is one answer kept for the oracle, which runs after the
// window so that its catalog scans do not compete with the server.
type sampled struct {
	q req
	a answer
}

// loadResult is what one client loop saw.
type loadResult struct {
	attempted, failed int
	late              int         // open loop: sends more than 1 ms behind schedule
	slices            [][]float64 // OK latencies in µs, by the slice the operation was due in
	rates             []float64   // paired loop: OK operations per second, by slice
	kept              []sampled
	itemsExamined     int64
	firstErr          error
	elapsed           time.Duration // first send to last response
}

func (r *loadResult) ok() int { return r.attempted - r.failed }

func (r *loadResult) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *loadResult) merge(o *loadResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.late += o.late
	for i := range o.slices {
		r.slices[i] = append(r.slices[i], o.slices[i]...)
	}
	r.kept = append(r.kept, o.kept...)
	r.itemsExamined += o.itemsExamined
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// target is where a loop sends and how it checks what comes back.
type target struct {
	hc     *http.Client
	base   string
	bundle *index.Bundle // vocabulary for the structural check
	reqs   []req
	next   *atomic.Int64 // shared cursor: the stream continues across warm-up and window
	keep   bool          // keep one answer in oracleEvery for the oracle
}

// one sends request i and returns its latency measured from `from`.
// buf is the caller's reusable body buffer.
func (t *target) one(ctx context.Context, i int64, from time.Time, buf *bytes.Buffer, res *loadResult, slice int) {
	q := t.reqs[i%int64(len(t.reqs))]
	res.attempted++
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+q.Path, nil)
	if err != nil {
		res.fail(err)
		return
	}
	resp, err := t.hc.Do(hr)
	if err != nil {
		res.fail(err)
		return
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(from)
	if err != nil {
		res.fail(err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		res.fail(fmt.Errorf("%s: status %d: %s", q.Path, resp.StatusCode, bytes.TrimSpace(buf.Bytes())))
		return
	}
	var a answer
	if err := json.Unmarshal(buf.Bytes(), &a); err != nil {
		res.fail(fmt.Errorf("%s: %w", q.Path, err))
		return
	}
	if err := checkAnswer(t.bundle, q, &a); err != nil {
		res.fail(err)
		return
	}
	res.itemsExamined += int64(a.ItemsExamined)
	res.slices[slice] = append(res.slices[slice], float64(lat)/float64(time.Microsecond))
	if t.keep && i%oracleEvery == 0 {
		res.kept = append(res.kept, sampled{q: q, a: a})
	}
}

// appendSlice adds a whole burst of load as one more slice of r.
func (r *loadResult) appendSlice(o *loadResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	var all []float64
	for _, s := range o.slices {
		all = append(all, s...)
	}
	r.slices = append(r.slices, all)
	r.rates = append(r.rates, float64(o.ok())/o.elapsed.Seconds())
	r.kept = append(r.kept, o.kept...)
	r.itemsExamined += o.itemsExamined
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.elapsed += o.elapsed
}

func newLoadResult() *loadResult { return &loadResult{slices: make([][]float64, sliceCount)} }

// sliceOf maps an offset into the window onto its slice.
func sliceOf(off, window time.Duration) int {
	s := int(int64(off) * sliceCount / int64(window))
	if s >= sliceCount {
		s = sliceCount - 1
	}
	return s
}

// closedLoop runs `clients` callers that each send their next request
// when the previous answer arrives, for the length of the window.
func closedLoop(ctx context.Context, t *target, clients int, window time.Duration) *loadResult {
	total := newLoadResult()
	start := time.Now()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := newLoadResult()
			var buf bytes.Buffer
			for ctx.Err() == nil {
				now := time.Now()
				off := now.Sub(start)
				if off >= window {
					break
				}
				t.one(ctx, t.next.Add(1)-1, now, &buf, res, sliceOf(off, window))
			}
			mu.Lock()
			total.merge(res)
			mu.Unlock()
		}()
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	return total
}

// pairedLoop spends the window alternating, pairSlice each, between the
// system under test and the reference server, under the same closed
// loop. Slice i of one result and slice i of the other are neighbours in
// time, so they saw the same host.
func pairedLoop(ctx context.Context, sut, ref *target, clients int, window time.Duration) (s, f *loadResult) {
	s, f = &loadResult{}, &loadResult{}
	pairs := max(1, int(window/(2*pairSlice)))
	for i := 0; i < pairs && ctx.Err() == nil; i++ {
		s.appendSlice(closedLoop(ctx, sut, clients, pairSlice))
		f.appendSlice(closedLoop(ctx, ref, clients, pairSlice))
	}
	return s, f
}

// openLoop sends on a fixed schedule of `rate` requests per second over
// one connection, and times each request from the moment it was due, so
// a stall is charged to every request that had to wait behind it.
func openLoop(ctx context.Context, t *target, rate int, window time.Duration) *loadResult {
	res := newLoadResult()
	period := time.Second / time.Duration(rate)
	start := time.Now()
	var buf bytes.Buffer
	for n := 0; ctx.Err() == nil; n++ {
		off := time.Duration(n) * period
		if off >= window {
			break
		}
		due := start.Add(off)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if time.Since(due) > time.Millisecond {
			res.late++
		}
		t.one(ctx, t.next.Add(1)-1, due, &buf, res, sliceOf(off, window))
	}
	res.elapsed = time.Since(start)
	return res
}
