package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"sync"
	"time"
)

// Transport is the http.RoundTripper of the coordinator's one hop to
// its shards: plain HTTP/1.1 over pooled keep-alive connections, each
// exchange run whole on the goroutine that asked for it. net/http's
// Transport hands every request to a connection's read and write
// goroutines; this one writes the request with (*http.Request).Write
// into the connection's bufio.Writer, flushes once, and reads the
// response with http.ReadResponse from its bufio.Reader, so the framing
// (Content-Length or chunked bodies, Connection: close, error bodies)
// is the standard library's and the handoffs are gone.
//
//   - The request context's deadline is the connection's deadline, and
//     context.AfterFunc moves it into the past when the context is
//     cancelled (a hedge's loser, a drain): no goroutine waits on it.
//   - A connection goes back to the idle pool only when its response
//     body reached EOF and was closed, the request went out whole,
//     neither side asked to close, nothing arrived behind the response,
//     and the AfterFunc was stopped before it fired. Every other
//     connection is closed.
//   - A reused connection that yields no response byte — the server
//     closed it while it sat idle — costs one resend on a fresh
//     connection through GetBody, never a failure. Every request on this
//     hop is a read, so a resend is safe.
//   - A connection is dialled only when none is idle, so the idle pool
//     per host never holds more connections than were ever in flight to
//     it at once.
//
// It speaks http:// only: no TLS, no proxy, no compression asked for.
// The zero value is ready to use; safe for concurrent use.
type Transport struct {
	dialer net.Dialer
	mu     sync.Mutex
	idle   map[string][]*conn // by host:port, the most recently used last
}

// conn is one pooled connection and its buffers.
type conn struct {
	t    *Transport
	addr string
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// aLongTimeAgo is a deadline that has passed: it fails any blocked or
// later read or write on a connection at once.
var aLongTimeAgo = time.Unix(1, 0)

var errBodyClosed = errors.New("client: read on closed response body")

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Scheme != "http" || req.URL.Host == "" {
		closeBody(req)
		return nil, fmt.Errorf("client: the transport speaks plain http only, not %q", req.URL.Scheme+"://"+req.URL.Host)
	}
	ctx := req.Context()
	if err := ctx.Err(); err != nil {
		closeBody(req)
		return nil, err
	}
	addr := hostPort(req.URL)
	pc := t.take(addr)
	for {
		reused := pc != nil
		if !reused {
			nc, err := t.dialer.DialContext(ctx, "tcp", addr)
			if err != nil {
				closeBody(req)
				return nil, ctxErr(ctx, err)
			}
			pc = &conn{t: t, addr: addr, nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
		}
		resp, answered, err := pc.exchange(req)
		if err == nil {
			return resp, nil
		}
		_ = pc.nc.Close()
		if !reused || answered || ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		// The idle connection was stale: resend once, on a fresh one.
		if req.Body != nil && req.Body != http.NoBody {
			if req.GetBody == nil {
				return nil, err
			}
			body, gerr := req.GetBody()
			if gerr != nil {
				return nil, gerr
			}
			resend := *req
			resend.Body = body
			req = &resend
		}
		pc = nil
	}
}

// exchange writes req on the connection and reads the response head.
// answered reports whether any response byte arrived; a server that
// answers before reading the whole request (a 413) is heard out, but
// its connection is not kept.
func (pc *conn) exchange(req *http.Request) (resp *http.Response, answered bool, err error) {
	ctx := req.Context()
	deadline, _ := ctx.Deadline()
	if err = pc.nc.SetDeadline(deadline); err != nil {
		closeBody(req)
		return nil, false, err
	}
	stop := context.AfterFunc(ctx, pc.expire)
	werr := req.Write(pc.bw)
	if werr == nil {
		werr = pc.bw.Flush()
	}
	if _, err = pc.br.Peek(1); err != nil {
		stop()
		if werr != nil {
			err = werr
		}
		return nil, false, ctxErr(ctx, err)
	}
	resp, err = http.ReadResponse(pc.br, req)
	if err == nil && resp.StatusCode < 200 {
		err = fmt.Errorf("client: unexpected informational response %q", resp.Status)
	}
	if err != nil {
		stop()
		return nil, true, ctxErr(ctx, err)
	}
	resp.Body = &body{
		pc: pc, rc: resp.Body, ctx: ctx, stop: stop,
		keep: werr == nil && !req.Close && !resp.Close,
		eof:  resp.Body == http.NoBody,
	}
	return resp, true, nil
}

// expire fails the connection's pending and later I/O: the request's
// context was cancelled.
func (pc *conn) expire() { _ = pc.nc.SetDeadline(aLongTimeAgo) }

// body is a response body that decides, at Close, whether its
// connection goes back to the pool. Read and Close belong to one
// goroutine at a time.
type body struct {
	pc   *conn
	rc   io.ReadCloser // http.ReadResponse's; never closed, as it would drain
	ctx  context.Context
	stop func() bool // the exchange's AfterFunc
	keep bool        // the request was written whole and no side asked to close
	eof  bool
	done bool // closed
}

func (b *body) Read(p []byte) (int, error) {
	if b.done {
		return 0, errBodyClosed
	}
	if b.eof {
		return 0, io.EOF
	}
	n, err := b.rc.Read(p)
	switch {
	case err == io.EOF:
		b.eof = true
	case err != nil:
		err = ctxErr(b.ctx, err)
	}
	return n, err
}

func (b *body) Close() error {
	if b.done {
		return nil
	}
	b.done = true
	if b.stop() && b.eof && b.keep && b.pc.br.Buffered() == 0 {
		b.pc.t.put(b.pc)
	} else {
		_ = b.pc.nc.Close()
	}
	return nil
}

// take pops addr's most recently used idle connection, or returns nil.
func (t *Transport) take(addr string) *conn {
	t.mu.Lock()
	defer t.mu.Unlock()
	conns := t.idle[addr]
	n := len(conns)
	if n == 0 {
		return nil
	}
	pc := conns[n-1]
	conns[n-1] = nil
	t.idle[addr] = conns[:n-1]
	return pc
}

func (t *Transport) put(pc *conn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.idle == nil {
		t.idle = make(map[string][]*conn)
	}
	t.idle[pc.addr] = append(t.idle[pc.addr], pc)
}

// CloseIdleConnections closes every pooled connection. One in use is
// pooled as usual when its exchange ends, and the transport stays
// usable.
func (t *Transport) CloseIdleConnections() {
	t.mu.Lock()
	idle := t.idle
	t.idle = nil
	t.mu.Unlock()
	for _, conns := range idle {
		for _, pc := range conns {
			_ = pc.nc.Close()
		}
	}
}

// hostPort is u's dial address, with http's default port when u names
// none.
func hostPort(u *url.URL) string {
	if u.Port() != "" {
		return u.Host
	}
	return net.JoinHostPort(u.Hostname(), "80")
}

func closeBody(req *http.Request) {
	if req.Body != nil {
		_ = req.Body.Close()
	}
}

// ctxErr is err as the caller sees it: once the context has ended — its
// deadline or cancellation reaches the connection as a timeout — the
// context's own error.
func ctxErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return context.DeadlineExceeded
	}
	return err
}
