package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's side of the boundary. Spans of one operation share
// Op; Parent is the ID of the span that caused this one (0 for a root).
// N is how many calls the span covers: 1, except for nanosecond-scale
// calls that are timed in batches so the clock read does not dominate.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's origin
	End    int64  `json:"end_ns"`
	N      int    `json:"n"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer holds spans in memory until the run ends. The lock is for the
// sharded replay, whose scatter legs end on their own goroutines — a
// hedged backup leg possibly after the operation that fired it.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID for end and for children.
func (t *tracer) begin(name string, parent, op int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, N: 1,
		Start: int64(time.Since(t.origin)),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	t.spans[id-1].End = int64(time.Since(t.origin))
	t.mu.Unlock()
}

// get returns the span with the given ID; since returns a copy of the
// spans recorded after the one with ID `after` (0 for all).
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

func (t *tracer) since(after int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[after:]...)
}

// add records a span whose interval the caller measured or derived
// (per-iteration training phases arrive as durations, not as calls the
// benchmark can bracket).
func (t *tracer) add(name string, parent, op int, start, end time.Time, n int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, N: n,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
	})
	return len(t.spans)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, edge int64
		edge = s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// spanSummary says where a traced run's time went, per span name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"` // total minus what child spans cover
}

func (t *tracer) summarise() []spanSummary {
	spans := t.since(0)
	self := selfTimes(spans)
	byName := map[string]*spanSummary{}
	var out []*spanSummary
	for _, s := range spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
			out = append(out, sum)
		}
		sum.Count += s.N
		sum.TotalMS += float64(s.dur()) / float64(time.Millisecond)
		sum.SelfMS += float64(self[s.ID]) / float64(time.Millisecond)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	flat := make([]spanSummary, len(out))
	for i, s := range out {
		flat[i] = *s
	}
	return flat
}

// durations collects, per span name, every span's duration per covered
// call in the given unit (e.g. time.Microsecond).
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.since(0) {
		if s.Name == name && s.N > 0 {
			out = append(out, float64(s.dur())/float64(unit)/float64(s.N))
		}
	}
	return out
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	spans := t.since(0)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
