package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tcam/internal/api"
)

// countingServer is an httptest server that counts the connections it
// accepts.
func countingServer(t *testing.T, h http.HandlerFunc) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	ts := httptest.NewUnstartedServer(h)
	conns := &atomic.Int64{}
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, conns
}

// idleConns counts the transport's pooled connections.
func idleConns(tr *Transport) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := 0
	for _, conns := range tr.idle {
		n += len(conns)
	}
	return n
}

// roundTrip posts body to url through rt and reads the whole response.
func roundTrip(ctx context.Context, rt http.RoundTripper, url, body string) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	resp, err := rt.RoundTrip(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	return resp, got, err
}

func echo(w http.ResponseWriter, r *http.Request) { _, _ = io.Copy(w, r.Body) }

// A pooled connection the server closed while it sat idle yields no
// response byte: the request goes again on a fresh connection, and the
// caller sees one success.
func TestTransportResendsOnStaleConnection(t *testing.T) {
	var handled atomic.Int64
	ts, conns := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
		handled.Add(1)
		echo(w, r)
	})
	tr := &Transport{}
	defer tr.CloseIdleConnections()
	if _, _, err := roundTrip(context.Background(), tr, ts.URL, "first"); err != nil {
		t.Fatal(err)
	}
	ts.CloseClientConnections() // the server's idle timeout, early
	_, got, err := roundTrip(context.Background(), tr, ts.URL, "second")
	if err != nil {
		t.Fatalf("request over a stale connection failed: %v", err)
	}
	if string(got) != "second" {
		t.Fatalf("resent body came back as %q", got)
	}
	if n, h := conns.Load(), handled.Load(); n != 2 || h != 2 {
		t.Fatalf("%d connections and %d requests handled, want 2 and 2", n, h)
	}
}

// A body closed before EOF leaves bytes on the wire: its connection is
// closed, not pooled.
func TestTransportDropsAbandonedBody(t *testing.T) {
	ts, conns := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(bytes.Repeat([]byte("x"), 64<<10))
	})
	tr := &Transport{}
	defer tr.CloseIdleConnections()
	req, _ := http.NewRequest(http.MethodGet, ts.URL, nil)
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if n := idleConns(tr); n != 0 {
		t.Fatalf("%d idle connections after an abandoned body, want 0", n)
	}
	if _, _, err := roundTrip(context.Background(), tr, ts.URL, ""); err != nil {
		t.Fatal(err)
	}
	if n := conns.Load(); n != 2 {
		t.Fatalf("%d connections, want 2: the abandoned one was reused", n)
	}
}

// Cancelling the context mid-body fails the read with the context's
// error at once, and the connection is closed: the server sees its
// request end.
func TestTransportDropsCancelledBody(t *testing.T) {
	hungUp := make(chan struct{})
	ts, _ := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("first"))
		w.(http.Flusher).Flush()
		<-r.Context().Done()
		close(hungUp)
	})
	tr := &Transport{}
	defer tr.CloseIdleConnections()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := resp.Body.Read(make([]byte, 1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("read after cancel: %v, want context.Canceled", err)
	}
	_ = resp.Body.Close()
	if n := idleConns(tr); n != 0 {
		t.Fatalf("%d idle connections after a cancelled body, want 0", n)
	}
	select {
	case <-hungUp:
	case <-time.After(5 * time.Second):
		t.Fatal("the server never saw the connection close")
	}
}

// A response that says Connection: close ends its connection.
func TestTransportDropsConnectionClose(t *testing.T) {
	ts, conns := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		echo(w, r)
	})
	tr := &Transport{}
	defer tr.CloseIdleConnections()
	for i := 1; i <= 2; i++ {
		resp, got, err := roundTrip(context.Background(), tr, ts.URL, "bye")
		if err != nil || string(got) != "bye" || !resp.Close {
			t.Fatalf("request %d: %q, close=%v, %v", i, got, resp != nil && resp.Close, err)
		}
		if n := idleConns(tr); n != 0 {
			t.Fatalf("%d idle connections after Connection: close, want 0", n)
		}
		if n := conns.Load(); n != int64(i) {
			t.Fatalf("%d connections after %d requests, want %d", n, i, i)
		}
	}
}

// A chunked body reads whole, and its connection is reused.
func TestTransportReadsChunkedBody(t *testing.T) {
	parts := []string{`{"user":"u",`, `"interval":3,`, `"results":[]}`}
	ts, conns := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
		for _, p := range parts {
			_, _ = w.Write([]byte(p))
			w.(http.Flusher).Flush()
		}
	})
	tr := &Transport{}
	defer tr.CloseIdleConnections()
	for i := 0; i < 3; i++ {
		resp, got, err := roundTrip(context.Background(), tr, ts.URL, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.TransferEncoding) != 1 || resp.TransferEncoding[0] != "chunked" {
			t.Fatalf("transfer encoding %v, want chunked", resp.TransferEncoding)
		}
		if want := strings.Join(parts, ""); string(got) != want {
			t.Fatalf("body %q, want %q", got, want)
		}
	}
	if n, idle := conns.Load(), idleConns(tr); n != 1 || idle != 1 {
		t.Fatalf("%d connections, %d idle; want one, reused", n, idle)
	}
}

// A shard that refuses an oversized body answers 413 before it has read
// the request; the answer still reaches api.Error through Attempt.
func TestTransportCarries413ToAPIError(t *testing.T) {
	ts, _ := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
		var q api.Query
		if err := api.ReadBody(w, r, 1<<20, "query", &q); err != nil {
			api.Fail(w, err, http.StatusBadRequest)
		}
	})
	tr := &Transport{}
	defer tr.CloseIdleConnections()
	huge := `{"user":"u","time":1,"k":5,"exclude":["` + strings.Repeat(`item-0","`, 200_000) + `x"]}`
	req, _ := http.NewRequest(http.MethodPost, ts.URL, strings.NewReader(huge))
	_, err := Attempt(&http.Client{Transport: tr}, req, new(api.ShardPartial))
	var e *api.Error
	if !errors.As(err, &e) || e.Status != http.StatusRequestEntityTooLarge || !strings.Contains(e.Msg, "exceeds") {
		t.Fatalf("err = %v, want a 413 api.Error with the shard's message", err)
	}
	if n := idleConns(tr); n != 0 {
		t.Fatalf("%d idle connections after a half-read request, want 0", n)
	}
}

// A shard that accepts and never answers costs the context's deadline,
// not more.
func TestTransportBlackHoleReturnsAtDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	defer ln.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			_, _ = io.Copy(io.Discard, c) // returns once the client hangs up
			_ = c.Close()
		}
	}()
	tr := &Transport{}
	defer tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = roundTrip(ctx, tr, "http://"+ln.Addr().String()+"/shard/query", "{}")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("a black-holed exchange took %v against a 50ms deadline", took)
	}
}

// Connections are dialled only when none is idle: concurrent callers
// open no more than there are callers, and the pool holds no more.
func TestTransportIdlePoolBounded(t *testing.T) {
	ts, conns := countingServer(t, echo)
	tr := &Transport{}
	defer tr.CloseIdleConnections()
	const callers = 4
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, got, err := roundTrip(context.Background(), tr, ts.URL, "q"); err != nil || string(got) != "q" {
					t.Errorf("%q, %v", got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 100; i++ {
		if _, _, err := roundTrip(context.Background(), tr, ts.URL, "q"); err != nil {
			t.Fatal(err)
		}
	}
	if n, idle := conns.Load(), idleConns(tr); n > callers || idle > callers {
		t.Fatalf("%d connections opened, %d idle; want at most %d of each", n, idle, callers)
	}
}

// The transport owns no goroutine: once its idle connections are
// closed, nothing it started is left, a cancelled exchange included.
func TestTransportLeavesNoGoroutine(t *testing.T) {
	ts, _ := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/hang" {
			_, _ = io.Copy(io.Discard, r.Body) // the server watches for a hang-up only after EOF
			<-r.Context().Done()
			return
		}
		echo(w, r)
	})
	baseline := runtime.NumGoroutine()
	tr := &Transport{}
	for i := 0; i < 20; i++ {
		if _, _, err := roundTrip(context.Background(), tr, ts.URL, "q"); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := roundTrip(ctx, tr, ts.URL+"/hang", "q"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung exchange: %v, want context.DeadlineExceeded", err)
	}
	tr.CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after CloseIdleConnections, %d before the first request", runtime.NumGoroutine(), baseline)
		}
	}
}

// rawServer answers every request on a loopback listener with the
// bytes in reply, then closes the connection.
type rawServer struct {
	ln    net.Listener
	reply atomic.Pointer[[]byte]
	wg    sync.WaitGroup
}

func newRawServer(tb testing.TB) *rawServer {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	s := &rawServer{ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serve(c)
			}()
		}
	}()
	tb.Cleanup(func() {
		_ = ln.Close()
		s.wg.Wait()
	})
	return s
}

func (s *rawServer) serve(c net.Conn) {
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))
	req, err := http.ReadRequest(bufio.NewReader(c))
	if err != nil {
		return
	}
	_, _ = io.Copy(io.Discard, req.Body)
	_, _ = c.Write(*s.reply.Load())
}

// FuzzLegResponse serves arbitrary response bytes over loopback. The
// transport never panics, never pools a connection whose response it
// could not read to EOF, and wherever both it and http.DefaultTransport
// accept the response they agree on its status and body bytes.
// (DefaultTransport asks for gzip and decodes it; a response it
// decompressed is not compared.)
func FuzzLegResponse(f *testing.F) {
	partial := `{"user":"user-1","interval":3,"item_lo":0,"item_hi":6,"version":1,"results":[{"item":2,"name":"item-2","score":0.25}],"items_examined":6}` + "\n"
	refusal := `{"error":"shard query body exceeds 1048576 bytes"}` + "\n"
	for _, raw := range []string{
		"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: " + strconv.Itoa(len(partial)) + "\r\n\r\n" + partial,
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\nTrailer: x\r\n\r\n",
		"HTTP/1.1 413 Request Entity Too Large\r\nContent-Length: " + strconv.Itoa(len(refusal)) + "\r\nConnection: close\r\n\r\n" + refusal,
		"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.0 200 OK\r\n\r\nclose-delimited body",
		"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nno",
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\nContent-Length: 4\r\n\r\n\x1f\x8b\x08\x00",
		"HTTP/1.1 204 No Content\r\nContent-Length: 3\r\n\r\nabc",
		"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab",
		"HTTP/1.1 2000 OK\r\n\r\n",
		"\r\n\r\n",
		"",
	} {
		f.Add([]byte(raw))
	}
	srv := newRawServer(f)
	url := "http://" + srv.ln.Addr().String() + "/shard/query"
	fetch := func(rt http.RoundTripper) (*http.Response, []byte, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return roundTrip(ctx, rt, url, `{"user":"user-1","time":3,"k":1}`)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		srv.reply.Store(&raw)
		tr := &Transport{}
		defer tr.CloseIdleConnections()
		defer http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		resp, got, err := fetch(tr)
		if err != nil && idleConns(tr) != 0 {
			t.Fatalf("pooled the connection of a response it failed on: %v", err)
		}
		want, wantBody, werr := fetch(http.DefaultTransport)
		if err != nil || werr != nil || want.Uncompressed {
			return
		}
		if resp.StatusCode != want.StatusCode || !bytes.Equal(got, wantBody) {
			t.Fatalf("transport read %d %q, net/http %d %q", resp.StatusCode, got, want.StatusCode, wantBody)
		}
	})
}
