package httpfault_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tcam/internal/faultinject"
	"tcam/internal/faultinject/httpfault"
)

func transportClient(site string) (*httptest.Server, *http.Client) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"ok":true,"payload":"0123456789"}`))
	}))
	hc := &http.Client{Transport: &httpfault.Transport{Site: site}}
	return ts, hc
}

func TestTransportPassthroughWhenUnarmed(t *testing.T) {
	ts, hc := transportClient("net.test")
	defer ts.Close()
	resp, err := hc.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil || len(body) == 0 {
		t.Fatalf("clean read failed: %v (%d bytes)", err, len(body))
	}
}

func TestTransportInjectsConnectionErrors(t *testing.T) {
	defer faultinject.Reset()
	ts, hc := transportClient("net.conn")
	defer ts.Close()
	faultinject.SetErr("net.conn.conn", faultinject.ErrorsN(2, faultinject.ErrInjectedConn))
	for i := 0; i < 2; i++ {
		if _, err := hc.Get(ts.URL); !errors.Is(err, faultinject.ErrInjectedConn) {
			t.Fatalf("attempt %d: err = %v, want injected connection error", i, err)
		}
	}
	// Third attempt: ErrorsN exhausted, request goes through.
	resp, err := hc.Get(ts.URL)
	if err != nil {
		t.Fatalf("recovered attempt failed: %v", err)
	}
	_ = resp.Body.Close()
}

func TestTransportTearsResponseBody(t *testing.T) {
	defer faultinject.Reset()
	ts, hc := transportClient("net.torn")
	defer ts.Close()
	faultinject.SetErr("net.torn.torn", faultinject.ErrorAlways(faultinject.ErrInjectedTorn))
	resp, err := hc.Get(ts.URL)
	if err != nil {
		t.Fatalf("headers should arrive before the tear: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if !errors.Is(err, faultinject.ErrInjectedTorn) {
		t.Fatalf("read err = %v (got %d bytes), want torn-response error", err, len(body))
	}
	if len(body) != 1 {
		t.Fatalf("torn body let %d bytes through, want exactly 1", len(body))
	}
}

func TestTransportInjectsLatency(t *testing.T) {
	defer faultinject.Reset()
	ts, hc := transportClient("net.slow")
	defer ts.Close()
	const delay = 30 * time.Millisecond
	faultinject.Set("net.slow.delay", faultinject.Sleeps(delay))
	start := time.Now()
	resp, err := hc.Get(ts.URL)
	if err != nil {
		t.Fatalf("slow-then-succeed request failed: %v", err)
	}
	_ = resp.Body.Close()
	if took := time.Since(start); took < delay {
		t.Fatalf("request returned after %v, want >= %v", took, delay)
	}
}

// A request parked at the .delay site gives up when its context ends,
// with the context's error, as a network wait does; the hook itself
// finishes on its own once released.
func TestTransportDelayEndsWithContext(t *testing.T) {
	defer faultinject.Reset()
	ts, hc := transportClient("net.park")
	defer ts.Close()
	entered, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	faultinject.Set("net.park.delay", faultinject.Blocks(entered, release))
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		<-entered
		cancel()
	}()
	if _, err := hc.Do(req); !errors.Is(err, context.Canceled) {
		t.Fatalf("parked request err = %v, want context.Canceled", err)
	}
}
