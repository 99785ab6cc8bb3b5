package tcam

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"tcam/internal/api"
	"tcam/internal/faultinject"
	"tcam/internal/server"
	"tcam/internal/shard"
	"tcam/internal/testfixture"
)

// process is one serving process as its supervisor and its clients see
// it: the shell it runs behind, a query its door answers 200, and what
// the door's admission and fault site are called.
type process struct {
	shell                *server.Shell
	logs                 *bytes.Buffer
	method, target, body string
	site                 string // the door's fault-injection site
	budget               int    // the door's in-flight budget
}

// processKinds builds a fresh process of each kind over the serving
// fixture: a monolith, a shard serving half the catalog, and a
// coordinator over two in-process shards.
var processKinds = []struct {
	name  string
	build func(t *testing.T) *process
}{
	{"monolith", func(t *testing.T) *process {
		p := &process{logs: new(bytes.Buffer), method: http.MethodGet,
			target: "/recommend?user=user-2&time=115&k=3", site: "server.recommend", budget: 2}
		s, err := server.New(testfixture.Serving(t), server.WithLimits(p.budget, 1), server.WithLogger(logTo(p.logs)))
		if err != nil {
			t.Fatal(err)
		}
		p.shell = s.Shell
		return p
	}},
	{"shard", func(t *testing.T) *process {
		p := &process{logs: new(bytes.Buffer), method: http.MethodPost,
			target: "/shard/query", body: `{"user":"user-2","time":115,"k":3}`, site: "server.shard", budget: 2}
		b := testfixture.Serving(t)
		s, err := server.New(b, server.WithItemRange(0, len(b.Items)/2), server.WithLimits(p.budget, 1), server.WithLogger(logTo(p.logs)))
		if err != nil {
			t.Fatal(err)
		}
		p.shell = s.Shell
		return p
	}},
	{"coordinator", func(t *testing.T) *process {
		// The budget is the constant every coordinator runs with.
		p := &process{logs: new(bytes.Buffer), method: http.MethodGet,
			target: "/recommend?user=user-2&time=115&k=3", site: "coordinator.recommend", budget: server.DefaultMaxInflight}
		b := testfixture.Serving(t)
		cfg := shard.Config{Logger: logTo(p.logs)}
		for _, r := range shard.Partition(len(b.Items), 2) {
			s, err := server.New(b, server.WithItemRange(r.Lo, r.Hi))
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s)
			t.Cleanup(ts.Close)
			cfg.Shards = append(cfg.Shards, shard.ShardConfig{BaseURL: ts.URL, Items: r})
		}
		c, err := shard.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.shell = c.Shell
		return p
	}},
}

func logTo(buf *bytes.Buffer) *slog.Logger { return slog.New(slog.NewTextHandler(buf, nil)) }

// do serves one request in process, straight into the shell.
func (p *process) do(ctx context.Context, method, target, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, strings.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	p.shell.ServeHTTP(w, req)
	return w
}

// query asks the door its good query.
func (p *process) query(ctx context.Context) *httptest.ResponseRecorder {
	return p.do(ctx, p.method, p.target, p.body)
}

// status probes /healthz or /readyz and returns the code and the
// "status" field.
func (p *process) status(t *testing.T, path string) (int, string) {
	t.Helper()
	w := p.do(context.Background(), http.MethodGet, path, "")
	var body struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("%s: %v in %q", path, err, w.Body.String())
	}
	return w.Code, body.Status
}

// errorOf decodes the error body every non-200 answer carries.
func errorOf(t *testing.T, w *httptest.ResponseRecorder) string {
	t.Helper()
	var e api.ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatalf("status %d with body %q: %v", w.Code, w.Body.String(), err)
	}
	return e.Error
}

// TestProcessContract runs the one lifecycle contract of the process
// shell (DESIGN.md §9) against every process kind: what a supervisor, a
// load balancer and an impatient client may rely on is the same whether
// the process is a tcamserver, a shard or the coordinator.
func TestProcessContract(t *testing.T) {
	for _, kind := range processKinds {
		t.Run(kind.name, func(t *testing.T) {
			ctx := context.Background()
			for _, row := range []struct {
				name  string
				check func(t *testing.T, p *process)
			}{
				{"wrong method is 405", func(t *testing.T, p *process) {
					wrong := http.MethodPost
					if p.method == http.MethodPost {
						wrong = http.MethodGet
					}
					if w := p.do(ctx, wrong, p.target, p.body); w.Code != http.StatusMethodNotAllowed {
						t.Errorf("%s %s: status %d, want 405", wrong, p.target, w.Code)
					}
				}},
				{"over budget is 429 with Retry-After", func(t *testing.T, p *process) {
					entered := make(chan struct{}, p.budget) // one send per budget slot
					release := make(chan struct{})
					faultinject.Set(p.site, faultinject.Blocks(entered, release))
					// The parked requests are cancelled before they are let
					// go, so filling a 1024-slot budget scatters nothing.
					parked, cancel := context.WithCancel(ctx)
					var wg sync.WaitGroup
					codes := make(chan int, p.budget) // one send per parked request
					for i := 0; i < p.budget; i++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							codes <- p.query(parked).Code
						}()
					}
					for i := 0; i < p.budget; i++ {
						<-entered // every slot is now held inside the door
					}
					w := p.query(ctx)
					if w.Code != http.StatusTooManyRequests || w.Header().Get("Retry-After") == "" {
						t.Errorf("request %d of a %d budget: status %d, Retry-After %q; want 429 with a hint",
							p.budget+1, p.budget, w.Code, w.Header().Get("Retry-After"))
					}
					cancel()
					close(release)
					wg.Wait()
					close(codes)
					for code := range codes {
						if code != http.StatusServiceUnavailable {
							t.Errorf("parked, then cancelled request: status %d, want 503", code)
						}
					}
					faultinject.Reset()
					if w := p.query(ctx); w.Code != http.StatusOK {
						t.Errorf("after the slots were freed: status %d, want 200", w.Code)
					}
				}},
				{"cancelled before start is 503", func(t *testing.T, p *process) {
					cctx, cancel := context.WithCancel(ctx)
					faultinject.Set(p.site, cancel)
					w := p.query(cctx)
					if w.Code != http.StatusServiceUnavailable || errorOf(t, w) != "request cancelled" {
						t.Errorf("status %d %q, want 503 \"request cancelled\" from the door itself", w.Code, w.Body.String())
					}
				}},
				{"a handler panic is one logged 500 and the process survives", func(t *testing.T, p *process) {
					faultinject.Set(p.site, faultinject.FailsOnce(faultinject.Panics()))
					if w := p.query(ctx); w.Code != http.StatusInternalServerError {
						t.Errorf("panicking request: status %d, want 500", w.Code)
					}
					if n := strings.Count(p.logs.String(), `msg="panic serving request"`); n != 1 {
						t.Errorf("%d panic records, want 1, in:\n%s", n, p.logs)
					}
					if w := p.query(ctx); w.Code != http.StatusOK {
						t.Errorf("request after the panic: status %d, want 200", w.Code)
					}
				}},
				{"drain flips /readyz and nothing else", func(t *testing.T, p *process) {
					if code, status := p.status(t, "/readyz"); code != http.StatusOK || status != "ready" {
						t.Fatalf("/readyz before drain: %d %q, want 200 ready", code, status)
					}
					p.shell.StartDrain()
					if code, status := p.status(t, "/readyz"); code != http.StatusServiceUnavailable || status != "draining" {
						t.Errorf("/readyz while draining: %d %q, want 503 draining", code, status)
					}
					if code, status := p.status(t, "/healthz"); code != http.StatusOK || status != "ok" {
						t.Errorf("/healthz while draining: %d %q, want 200 ok", code, status)
					}
					if w := p.query(ctx); w.Code != http.StatusOK {
						t.Errorf("request arriving during drain: status %d, want 200", w.Code)
					}
				}},
				{"SIGTERM drains in-flight requests", func(t *testing.T, p *process) {
					entered := make(chan struct{}, 1)
					release := make(chan struct{})
					faultinject.Set(p.site, faultinject.Blocks(entered, release))
					ready := make(chan string, 1)
					done := make(chan error, 1)
					go func() { done <- p.shell.Run("127.0.0.1:0", 5*time.Second, func(addr string) { ready <- addr }) }()
					var addr string
					select {
					case addr = <-ready:
					case err := <-done:
						t.Fatalf("Run exited before it was ready: %v", err)
					}
					inflight := make(chan int, 1)
					go func() {
						req, err := http.NewRequest(p.method, "http://"+addr+p.target, strings.NewReader(p.body))
						if err != nil {
							inflight <- -1
							return
						}
						resp, err := http.DefaultClient.Do(req)
						if err != nil {
							inflight <- -1
							return
						}
						resp.Body.Close()
						inflight <- resp.StatusCode
					}()
					<-entered // the request is inside the door
					if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
						t.Fatal(err)
					}
					// The listener closes right after the flip, so readiness is
					// probed in process.
					for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
						if code, _ := p.status(t, "/readyz"); code == http.StatusServiceUnavailable {
							break
						}
						if time.Now().After(deadline) {
							t.Fatal("/readyz still 200 five seconds after SIGTERM")
						}
					}
					select {
					case err := <-done:
						t.Fatalf("Run returned %v with a request still in flight", err)
					default:
					}
					close(release)
					if code := <-inflight; code != http.StatusOK {
						t.Errorf("in-flight request across the drain: status %d, want 200", code)
					}
					select {
					case err := <-done:
						if err != nil {
							t.Errorf("Run returned %v, want a clean drain", err)
						}
					case <-time.After(10 * time.Second):
						t.Fatal("Run did not return after the in-flight request finished")
					}
				}},
			} {
				t.Run(row.name, func(t *testing.T) {
					defer faultinject.Reset()
					row.check(t, kind.build(t))
				})
			}
		})
	}
}
