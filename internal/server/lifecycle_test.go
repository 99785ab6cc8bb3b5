package server

// Tests for the lifecycle and fault-tolerance layer (DESIGN.md §9):
// graceful drain, hot reload under concurrent load, panic containment,
// admission control, deadline propagation, and body-size bounds. Run
// under -race via scripts/check.sh.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tcam/internal/api"
	"tcam/internal/faultinject"
	"tcam/internal/index"
	"tcam/internal/testfixture"
)

// numbered returns prefix-0 … prefix-(n-1).
func numbered(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%d", prefix, i)
	}
	return out
}

func serveHTTP(srv *Server, method, target string, body string) *httptest.ResponseRecorder {
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, target, nil)
	} else {
		req = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

// Graceful shutdown: an in-flight request parked inside the handler
// must complete with 200 while /readyz flips to 503 and /healthz stays
// 200; http.Server.Shutdown returns within the drain deadline once the
// request finishes.
func TestGracefulShutdownDrainsInflight(t *testing.T) {
	defer faultinject.Reset()
	srv, err := New(testfixture.Bundle(t, 6, 12))
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	faultinject.Set("server.recommend", faultinject.Blocks(entered, release))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Get(base + "/recommend?user=user-2&time=115&k=3")
		if err != nil {
			inflight <- -1
			return
		}
		defer resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	<-entered // the request is now inside the handler

	srv.StartDrain()
	faultinject.Clear("server.recommend") // probes below must not park
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining: status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h api.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !h.Draining {
		t.Errorf("/healthz while draining: status %d draining %v, want 200 true", resp.StatusCode, h.Draining)
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- hs.Shutdown(shutdownCtx) }()
	close(release) // let the in-flight request finish inside the drain window
	if code := <-inflight; code != http.StatusOK {
		t.Errorf("in-flight request during drain: status %d, want 200", code)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown: %v (drain deadline exceeded?)", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
}

// Hot reload under sustained concurrent queries must drop zero
// requests: every query lands on a complete snapshot, old or new.
// Alternating catalog sizes stresses the snapshot-owned exclude pool
// (a stale pool entry sized to the wrong catalog would panic or
// misfilter). Run under -race.
func TestReloadWhileQuerying(t *testing.T) {
	small, big := testfixture.Bundle(t, 6, 12), testfixture.Bundle(t, 6, 9)
	srv, err := New(small)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	failures := make(chan string, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				w := serveHTTP(srv, http.MethodGet,
					fmt.Sprintf("/recommend?user=user-%d&time=115&k=3&exclude=item-0,item-5", g+1), "")
				if w.Code != http.StatusOK {
					select {
					case failures <- fmt.Sprintf("goroutine %d iter %d: status %d: %s", g, i, w.Code, w.Body.String()):
					default:
					}
					return
				}
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		b := small
		if i%2 == 0 {
			b = big
		}
		if _, err := srv.Reload(b); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	close(failures)
	for f := range failures {
		t.Error(f)
	}
	// 1 boot + 20 reloads, visible in /healthz.
	w := serveHTTP(srv, http.MethodGet, "/healthz", "")
	var h api.Health
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Version != 21 {
		t.Errorf("version = %d, want 21", h.Version)
	}
}

// An injected handler panic must produce exactly one logged 500 and
// leave the server serving.
func TestPanicContainment(t *testing.T) {
	defer faultinject.Reset()
	var logBuf bytes.Buffer
	srv, err := New(testfixture.Bundle(t, 6, 12), WithLogger(slog.New(slog.NewTextHandler(&logBuf, nil))))
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set("server.recommend", faultinject.FailsOnce(faultinject.Panics()))
	if w := serveHTTP(srv, http.MethodGet, "/recommend?user=user-2&time=115&k=3", ""); w.Code != http.StatusInternalServerError {
		t.Errorf("panicking request: status %d, want 500", w.Code)
	}
	if !strings.Contains(logBuf.String(), `msg="panic serving request" method=GET path=/recommend`) {
		t.Errorf("panic not logged: %q", logBuf.String())
	}
	for i := 0; i < 3; i++ {
		if w := serveHTTP(srv, http.MethodGet, "/recommend?user=user-2&time=115&k=3", ""); w.Code != http.StatusOK {
			t.Fatalf("request %d after panic: status %d, want 200", i, w.Code)
		}
	}
}

// Saturating the /recommend in-flight budget sheds with 429 +
// Retry-After; freed slots serve again.
func TestLimiterSaturationSheds(t *testing.T) {
	defer faultinject.Reset()
	srv, err := New(testfixture.Bundle(t, 6, 12), WithLimits(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	faultinject.Set("server.recommend", faultinject.Blocks(entered, release))
	var wg sync.WaitGroup
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes <- serveHTTP(srv, http.MethodGet, "/recommend?user=user-1&time=115&k=3", "").Code
		}()
	}
	<-entered
	<-entered // both budget slots are now held inside the handler
	w := serveHTTP(srv, http.MethodGet, "/recommend?user=user-2&time=115&k=3", "")
	if w.Code != http.StatusTooManyRequests {
		t.Errorf("over-budget request: status %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	close(release)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Errorf("parked request: status %d, want 200", code)
		}
	}
	faultinject.Reset()
	if w := serveHTTP(srv, http.MethodGet, "/recommend?user=user-2&time=115&k=3", ""); w.Code != http.StatusOK {
		t.Errorf("after release: status %d, want 200", w.Code)
	}
}

// The batch endpoint has its own budget: a parked batch must not block
// /recommend, and a second batch is shed.
func TestBatchLimiterIndependent(t *testing.T) {
	defer faultinject.Reset()
	srv, err := New(testfixture.Bundle(t, 6, 12), WithLimits(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	faultinject.Set("server.batch", faultinject.Blocks(entered, release))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if w := serveHTTP(srv, http.MethodPost, "/recommend/batch",
			`{"queries":[{"user":"user-1","time":115,"k":3}]}`); w.Code != http.StatusOK {
			t.Errorf("parked batch: status %d, want 200", w.Code)
		}
	}()
	<-entered
	if w := serveHTTP(srv, http.MethodPost, "/recommend/batch",
		`{"queries":[{"user":"user-1","time":115,"k":3}]}`); w.Code != http.StatusTooManyRequests {
		t.Errorf("second batch: status %d, want 429", w.Code)
	}
	if w := serveHTTP(srv, http.MethodGet, "/recommend?user=user-2&time=115&k=3", ""); w.Code != http.StatusOK {
		t.Errorf("/recommend while batch saturated: status %d, want 200", w.Code)
	}
	close(release)
	wg.Wait()
}

// A request whose context is cancelled before TA work starts gets 503.
func TestRecommendCancelledContext(t *testing.T) {
	defer faultinject.Reset()
	srv, err := New(testfixture.Bundle(t, 6, 12))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	faultinject.Set("server.recommend", func() { cancel() })
	req := httptest.NewRequest(http.MethodGet, "/recommend?user=user-2&time=115&k=3", nil).WithContext(ctx)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("cancelled request: status %d, want 503", w.Code)
	}
}

// Cancellation mid-batch returns the completed prefix with the
// truncated marker; completed entries are bit-identical to the single
// endpoint's answers.
func TestBatchCancelledMidwayTruncates(t *testing.T) {
	defer faultinject.Reset()
	old := runtime.GOMAXPROCS(1) // one batch worker: deterministic prefix
	defer runtime.GOMAXPROCS(old)
	srv, err := New(testfixture.Bundle(t, 6, 12))
	if err != nil {
		t.Fatal(err)
	}
	want := serveHTTP(srv, http.MethodGet, "/recommend?user=user-1&time=115&k=3", "")
	var single api.RecommendResponse
	if err := json.Unmarshal(want.Body.Bytes(), &single); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Firing 3 lands before query index 2: two queries complete.
	faultinject.Set("topk.batch.query", faultinject.CancelsAfter(3, cancel))
	var body strings.Builder
	body.WriteString(`{"queries":[`)
	for i := 0; i < 6; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		body.WriteString(`{"user":"user-1","time":115,"k":3}`)
	}
	body.WriteString(`]}`)
	req := httptest.NewRequest(http.MethodPost, "/recommend/batch", strings.NewReader(body.String())).WithContext(ctx)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp api.BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated {
		t.Error("response not marked truncated")
	}
	if len(resp.Results) != 2 {
		t.Fatalf("got %d results, want the 2-query prefix", len(resp.Results))
	}
	for i, r := range resp.Results {
		if len(r.Recommendations) != len(single.Recommendations) {
			t.Fatalf("result %d: %d recommendations, want %d", i, len(r.Recommendations), len(single.Recommendations))
		}
		for j := range r.Recommendations {
			if r.Recommendations[j] != single.Recommendations[j] {
				t.Errorf("result %d[%d] = %+v, single %+v", i, j, r.Recommendations[j], single.Recommendations[j])
			}
		}
	}
}

// A batch cancelled before any query completes returns 503.
func TestBatchCancelledImmediatelyIs503(t *testing.T) {
	defer faultinject.Reset()
	srv, err := New(testfixture.Bundle(t, 6, 12))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Set("server.batch", func() { cancel() })
	req := httptest.NewRequest(http.MethodPost, "/recommend/batch",
		strings.NewReader(`{"queries":[{"user":"user-1","time":115,"k":3}]}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503", w.Code)
	}
}

// Oversized batch bodies are rejected with 413 before JSON decoding
// buffers them.
func TestBatchBodyTooLarge(t *testing.T) {
	srv, err := New(testfixture.Bundle(t, 6, 12))
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.WriteString(`{"queries":[{"user":"`)
	body.Write(bytes.Repeat([]byte("x"), maxBatchBody+1))
	body.WriteString(`","time":1}]}`)
	w := serveHTTP(srv, http.MethodPost, "/recommend/batch", body.String())
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413", w.Code)
	}
}

// /admin/reload: 501 without a source, version bump with one, 500 (and
// the old snapshot kept) when the source fails.
func TestAdminReload(t *testing.T) {
	b := testfixture.Bundle(t, 6, 12)
	srv, err := New(b)
	if err != nil {
		t.Fatal(err)
	}
	if w := serveHTTP(srv, http.MethodPost, "/admin/reload", ""); w.Code != http.StatusNotImplemented {
		t.Errorf("no reloader: status %d, want 501", w.Code)
	}
	if w := serveHTTP(srv, http.MethodGet, "/admin/reload", ""); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET reload: status %d, want 405", w.Code)
	}

	fail := false
	srv2, err := New(b, WithReloader(func() (*index.Bundle, error) {
		if fail {
			return nil, fmt.Errorf("bundle file torn")
		}
		return b, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	w := serveHTTP(srv2, http.MethodPost, "/admin/reload", "")
	if w.Code != http.StatusOK {
		t.Fatalf("reload: status %d: %s", w.Code, w.Body.String())
	}
	var rr api.Ready
	if err := json.Unmarshal(w.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Version != 2 {
		t.Errorf("version = %d, want 2", rr.Version)
	}
	fail = true
	if w := serveHTTP(srv2, http.MethodPost, "/admin/reload", ""); w.Code != http.StatusInternalServerError {
		t.Errorf("failing reload: status %d, want 500", w.Code)
	}
	if v := srv2.snapshot().version; v != 2 {
		t.Errorf("failed reload moved the snapshot: version %d", v)
	}
	if w := serveHTTP(srv2, http.MethodGet, "/recommend?user=user-2&time=115&k=3", ""); w.Code != http.StatusOK {
		t.Errorf("serving after failed reload: status %d", w.Code)
	}
}

// Reload must reject a broken bundle and keep serving the old one.
func TestReloadRejectsBrokenBundle(t *testing.T) {
	srv, err := New(testfixture.Bundle(t, 6, 12))
	if err != nil {
		t.Fatal(err)
	}
	broken := testfixture.Bundle(t, 6, 12)
	broken.Items = broken.Items[:3]
	if _, err := srv.Reload(broken); err == nil {
		t.Error("Reload accepted a broken bundle")
	}
	if w := serveHTTP(srv, http.MethodGet, "/recommend?user=user-2&time=115&k=3", ""); w.Code != http.StatusOK {
		t.Errorf("serving after rejected reload: status %d", w.Code)
	}
}

// /readyz is 200 with the current version before any drain.
func TestReadyz(t *testing.T) {
	srv, err := New(testfixture.Bundle(t, 6, 12))
	if err != nil {
		t.Fatal(err)
	}
	w := serveHTTP(srv, http.MethodGet, "/readyz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var rr api.Ready
	if err := json.Unmarshal(w.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Status != "ready" || rr.Version != 1 {
		t.Errorf("readyz = %+v", rr)
	}
	if srv.draining.Load() {
		t.Error("draining before StartDrain")
	}
}
