// Package api is the wire schema of the serving tier, declared once:
// the query every door accepts, the payloads every producer emits, the
// error body and the pooled JSON writer. internal/server, internal/shard
// and internal/client all speak these types, so a field or a bound
// cannot drift between them.
package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
)

// DefaultK is the result size of a query that names none; MaxK bounds
// what a query may ask for.
const (
	DefaultK = 10
	MaxK     = 1000
)

// Query is one temporal top-k request: the /recommend query string, one
// /recommend/batch entry and the /shard/query body. A zero K means
// DefaultK; unknown Exclude names are ignored.
type Query struct {
	User    string   `json:"user"`
	Time    int64    `json:"time"`
	K       int      `json:"k,omitempty"`
	Exclude []string `json:"exclude,omitempty"`
}

// Error is a request failure and the HTTP status every door gives it.
type Error struct {
	Status int
	Msg    string
}

func (e *Error) Error() string { return e.Msg }

// Errorf builds an *Error.
func Errorf(status int, format string, args ...interface{}) *Error {
	return &Error{Status: status, Msg: fmt.Sprintf(format, args...)}
}

var (
	errBadK    = Errorf(http.StatusBadRequest, "k must be in [1,%d]", MaxK)
	errBadTime = Errorf(http.StatusBadRequest, "time must be an integer timestamp in dataset ticks")
)

// ParseForm fills q from the GET form ?user=&time=&k=&exclude=a,b,
// reusing q.Exclude's backing array. url.ParseQuery has already
// percent-decoded the form and it is not decoded again, so an item
// named "c++" or "100%41" survives intact; an id containing a literal
// "," cannot be expressed here and needs /recommend/batch, and an empty
// id — which names no item — is dropped. An explicit k=0 is an error
// (only an absent k means the default); the upper bound is Normalize's,
// which every consumer of a Query applies.
func (q *Query) ParseForm(form url.Values) error {
	q.User, q.K, q.Exclude = form.Get("user"), 0, q.Exclude[:0]
	var err error
	if q.Time, err = strconv.ParseInt(form.Get("time"), 10, 64); err != nil {
		return errBadTime
	}
	if raw := form.Get("k"); raw != "" {
		if q.K, err = strconv.Atoi(raw); err != nil || q.K <= 0 {
			return errBadK
		}
	}
	for raw := form.Get("exclude"); raw != ""; {
		var id string
		if id, raw, _ = strings.Cut(raw, ","); id != "" {
			q.Exclude = append(q.Exclude, id)
		}
	}
	return nil
}

// Form renders q as the GET form ParseForm reads — its inverse for every
// query ParseForm can produce. A non-positive k is left off, so the
// server applies the default.
func (q *Query) Form() string {
	var b strings.Builder
	b.WriteString("user=" + url.QueryEscape(q.User) + "&time=" + strconv.FormatInt(q.Time, 10))
	if q.K > 0 {
		b.WriteString("&k=" + strconv.Itoa(q.K))
	}
	for i, id := range q.Exclude {
		if i == 0 {
			b.WriteString("&exclude=")
		} else {
			b.WriteByte(',')
		}
		b.WriteString(url.QueryEscape(id))
	}
	return b.String()
}

// Normalize applies the default k and rejects one outside [1, MaxK].
func (q *Query) Normalize() error {
	if q.K == 0 {
		q.K = DefaultK
	}
	if q.K < 0 || q.K > MaxK {
		return errBadK
	}
	return nil
}

// BatchRequest is the /recommend/batch request body.
type BatchRequest struct {
	Queries []Query `json:"queries"`
}

// Recommendation is one ranked item.
type Recommendation struct {
	Item  string  `json:"item"`
	Score float64 `json:"score"`
}

// Range is a contiguous [Lo, Hi) window of the item catalog — the unit
// the sharded tier partitions by and reports missing when degraded.
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// RecommendResponse is the /recommend payload and one /recommend/batch
// entry, where a per-query failure sets Error. Only a shard coordinator
// sets Degraded: the recommendations are then exact over the surviving
// shards, but items in MissingItemRanges were not considered.
type RecommendResponse struct {
	User              string           `json:"user"`
	Interval          int              `json:"interval"`
	Recommendations   []Recommendation `json:"recommendations"`
	ItemsExamined     int              `json:"items_examined"`
	Degraded          bool             `json:"degraded,omitempty"`
	MissingItemRanges []Range          `json:"missing_item_ranges,omitempty"`
	Error             string           `json:"error,omitempty"`
}

// BatchResponse is the /recommend/batch payload; Results aligns with
// the request's Queries by position. A request cancelled mid-batch is
// Truncated: Results then holds only the fully-answered prefix.
type BatchResponse struct {
	Results   []RecommendResponse `json:"results"`
	Truncated bool                `json:"truncated,omitempty"`
}

// PartialResult is one entry of a shard's partial top-k: the global
// item index is the coordinator's merge tie-break key, the name spares
// it a vocabulary, and the score is the exact float64 the TA computed
// (Go's shortest-form JSON encoding round-trips it bit-for-bit).
type PartialResult struct {
	Item  int     `json:"item"`
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

// ShardPartial is the /shard/query payload: a partial top-k over the
// shard's item window, plus that window and the generation version it
// was answered from, so a gather can tell a mixed-generation fleet.
type ShardPartial struct {
	User          string          `json:"user"`
	Interval      int             `json:"interval"`
	ItemLo        int             `json:"item_lo"`
	ItemHi        int             `json:"item_hi"`
	Version       uint64          `json:"version"`
	Results       []PartialResult `json:"results"`
	ItemsExamined int             `json:"items_examined"`
}

// Health is a server's /healthz payload. ItemRange is present only on
// a shard serving a window of the catalog, Ingest only when the server
// tails an ingest log, Cache only when a result cache is configured.
type Health struct {
	Status    string        `json:"status"`
	ModelKind string        `json:"model_kind"`
	Users     int           `json:"users"`
	Items     int           `json:"items"`
	Intervals int           `json:"intervals"`
	Topics    int           `json:"topics"`
	Version   uint64        `json:"version"`
	Draining  bool          `json:"draining,omitempty"`
	ItemRange *Range        `json:"item_range,omitempty"`
	Ingest    *IngestHealth `json:"ingest,omitempty"`
	Cache     *CacheHealth  `json:"cache,omitempty"`
}

// FleetHealth is a coordinator's /healthz payload: the fleet it fronts,
// each shard with its circuit breaker's state.
type FleetHealth struct {
	Status string        `json:"status"`
	Shards []ShardHealth `json:"shards"`
}

// ShardHealth is one fleet entry of FleetHealth.
type ShardHealth struct {
	BaseURL string `json:"base_url"`
	Items   Range  `json:"items"`
	Breaker string `json:"breaker"`
}

// Ready is the /readyz payload of every process kind (and, as
// "reloaded", /admin/reload's): 200 exactly when Status is "ready". A
// server reports the generation Version it would serve; a coordinator
// with open breakers is "degraded" — or "unavailable" with all of them
// open — and names the item ranges it cannot reach; any process that has
// begun to drain is "draining".
type Ready struct {
	Status            string  `json:"status"`
	Version           uint64  `json:"version,omitempty"`
	MissingItemRanges []Range `json:"missing_item_ranges,omitempty"`
}

// CacheHealth is the "cache" object of a server's or a shard's /healthz:
// lifetime counters, the live entry count and the epoch lookups are
// keyed by, which is the generation version.
type CacheHealth struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Stale   uint64 `json:"stale"`
	Entries int64  `json:"entries"`
	Epoch   uint64 `json:"epoch"`
	// HotPrecomputed counts the hot users the latest publish warmed.
	HotPrecomputed uint64 `json:"hot_precomputed,omitempty"`
}

// IngestHealth is the "ingest" object of /healthz: how far the serving
// snapshot lags the durable event stream.
type IngestHealth struct {
	LogOffset int64 `json:"log_offset"`
	LogEnd    int64 `json:"log_end"`
	// Lag is how many durable records the serving snapshot is behind.
	Lag int64 `json:"lag"`
	// StalenessSeconds is the age of the serving snapshot's derivation;
	// with Lag zero the snapshot is current regardless of its age.
	StalenessSeconds float64 `json:"staleness_seconds"`
}

// ErrorResponse is the body of every non-200 answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// WriteError answers with an ErrorResponse.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, ErrorResponse{Error: msg})
}

// Only restricts h to one HTTP method; anything else is answered 405.
func Only(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			WriteError(w, http.StatusMethodNotAllowed, method+" only")
			return
		}
		h(w, r)
	}
}

// Contain serves r through h with panic containment: a panicking
// handler produces one logged 500 (when nothing has been written yet)
// and never takes the process down.
func Contain(w http.ResponseWriter, r *http.Request, h http.Handler, logger *slog.Logger) {
	cw := &containedWriter{ResponseWriter: w}
	defer func() {
		if v := recover(); v != nil {
			logger.Error("panic serving request", "method", r.Method, "path", r.URL.Path,
				"panic", v, "stack", string(debug.Stack()))
			if !cw.wrote {
				WriteError(cw, http.StatusInternalServerError, "internal error")
			}
		}
	}()
	h.ServeHTTP(cw, r)
}

// containedWriter tracks whether a handler wrote anything, so panic
// recovery knows if a 500 can still be delivered on the connection.
type containedWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *containedWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *containedWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Fail answers a failed request: an *Error with its own status, any
// other error with fallback.
func Fail(w http.ResponseWriter, err error, fallback int) {
	var e *Error
	if errors.As(err, &e) {
		fallback = e.Status
	}
	WriteError(w, fallback, err.Error())
}

// jsonScratch is pooled response-encoding scratch: the buffer and its
// bound encoder are reused, so steady-state responses allocate neither.
// Buffers that ballooned on a large response are dropped rather than
// pooled so one burst can't pin memory.
type jsonScratch struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// maxPooledEncodeBuf caps the buffer size returned to the encode pool.
const maxPooledEncodeBuf = 64 << 10

var encodePool = sync.Pool{New: func() interface{} {
	s := &jsonScratch{}
	s.enc = json.NewEncoder(&s.buf)
	return s
}}

// WriteJSON writes payload with the given status. It is encoded in full
// before anything hits the wire, so a failure is reported whole as a 500.
func WriteJSON(w http.ResponseWriter, code int, payload interface{}) {
	s := encodePool.Get().(*jsonScratch)
	s.buf.Reset()
	w.Header().Set("Content-Type", "application/json")
	if err := s.enc.Encode(payload); err != nil {
		encodePool.Put(s)
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = fmt.Fprintf(w, `{"error":%q}`, "response encoding failed: "+err.Error())
		return
	}
	w.WriteHeader(code)
	_, _ = w.Write(s.buf.Bytes())
	if s.buf.Cap() <= maxPooledEncodeBuf {
		encodePool.Put(s)
	}
}
