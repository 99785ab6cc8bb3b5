// Package httpfault adapts the faultinject hook registry to the HTTP
// layer: an http.RoundTripper that turns armed hooks into connection
// errors, injected latency, and torn (mid-body) response failures. The
// shard coordinator tests thread Transport into their HTTP stacks, so
// the scatter-gather robustness suite (breaker trips, hedged
// stragglers, degraded merges) is a deterministic function of which
// hooks a test arms.
//
// It is a separate package so that importing faultinject — which the
// training and model packages do for their own hook sites — does not
// link net/http into every binary.
package httpfault

import (
	"io"
	"net/http"

	"tcam/internal/faultinject"
)

// Transport wraps an http.RoundTripper with fault-injection points
// keyed off Site. Per request, in order:
//
//	Site+".delay"  Fire hook — inject latency (Sleeps) or park the
//	               request (Blocks); a slow-then-succeed straggler is
//	               Sleeps past the hedge trigger. The hook runs on a
//	               goroutine of its own, and the request stops waiting
//	               for it, with its context's error, once that context
//	               ends, as a network wait does.
//	Site+".conn"   FireErr hook — non-nil aborts before the wire, the
//	               shape of a refused/reset connection.
//	Site+".torn"   FireErr hook — non-nil lets the response headers
//	               through but fails the body mid-read, the shape of a
//	               connection dropped inside the payload.
//
// With nothing armed each point costs one atomic load and starts no
// goroutine.
type Transport struct {
	Site string
	Base http.RoundTripper // nil means http.DefaultTransport
}

// RoundTrip implements http.RoundTripper with the Site's fault points.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := delay(req, faultinject.Hook(t.Site+".delay")); err != nil {
		return nil, err
	}
	if err := faultinject.FireErr(t.Site + ".conn"); err != nil {
		return nil, err
	}
	resp, err := t.base().RoundTrip(req)
	if err != nil || resp == nil {
		return resp, err
	}
	if terr := faultinject.FireErr(t.Site + ".torn"); terr != nil {
		resp.Body = &tornBody{rc: resp.Body, remain: 1, err: terr}
	}
	return resp, err
}

// delay runs hook, when one is armed, until it returns or req's context
// ends. In the second case the hook is left to finish on its own.
func delay(req *http.Request, hook func() error) error {
	if hook == nil {
		return nil
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hook()
	}()
	select {
	case <-done:
		return nil
	case <-req.Context().Done():
		return req.Context().Err()
	}
}

// CloseIdleConnections closes the idle connections of the base
// transport, when it keeps any.
func (t *Transport) CloseIdleConnections() {
	if ci, ok := t.base().(interface{ CloseIdleConnections() }); ok {
		ci.CloseIdleConnections()
	}
}

func (t *Transport) base() http.RoundTripper {
	if t.Base == nil {
		return http.DefaultTransport
	}
	return t.Base
}

// tornBody lets remain bytes through and then fails every Read — a
// response whose connection died inside the payload. Close still closes
// the underlying body so the transport can reclaim the connection.
type tornBody struct {
	rc     io.ReadCloser
	remain int
	err    error
}

func (b *tornBody) Read(p []byte) (int, error) {
	if b.remain <= 0 {
		return 0, b.err
	}
	if len(p) > b.remain {
		p = p[:b.remain]
	}
	n, err := b.rc.Read(p)
	b.remain -= n
	if err != nil {
		return n, err
	}
	return n, nil
}

func (b *tornBody) Close() error { return b.rc.Close() }
