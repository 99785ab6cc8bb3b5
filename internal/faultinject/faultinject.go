// Package faultinject provides deterministic, test-only fault hooks for
// the serving stack. Production code marks interesting points with
// Fire("site") or FireErr("site"); tests arm a hook at a site to inject
// latency, a panic, a context cancellation or an error at exactly that
// point, which turns
// fault-tolerance claims ("an injected panic yields one 500 and the
// server keeps serving") into ordinary deterministic tests.
//
// When no hook is armed, firing is a single atomic load — cheap enough to
// leave compiled into release binaries, and nothing in this package can
// trigger without a test explicitly arming it.
package faultinject

import (
	"sync"
	"sync/atomic"
	"time"
)

var (
	// armed short-circuits FireErr when no hooks are registered, keeping
	// the instrumented paths at one atomic load in production.
	armed atomic.Bool

	// hooks is the one registry: every site, whichever way it is fired.
	mu    sync.Mutex
	hooks map[string]func() error
)

// FireErr invokes the hook armed at site and returns what it returns;
// nil when nothing is armed (the production case: one atomic load). Call
// it where the injected failure is an error value the code path must
// handle — a refused connection, a torn response.
func FireErr(site string) error {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	fn := hooks[site]
	mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn()
}

// Fire is FireErr for sites where the fault is a side effect — latency,
// a panic, a cancellation — and there is no error to handle.
func Fire(site string) {
	_ = FireErr(site) // a site fired this way has nowhere to report an error hook's value
}

// SetErr arms an error-returning hook at site, replacing any previous
// hook there: FireErr(site) returns whatever fn returns. fn runs on the
// goroutine that fires. Tests should pair it with a deferred Reset.
func SetErr(site string, fn func() error) {
	mu.Lock()
	defer mu.Unlock()
	if hooks == nil {
		hooks = make(map[string]func() error)
	}
	hooks[site] = fn
	armed.Store(true)
}

// Set arms a side-effect hook at site: SetErr with a hook that returns
// nil.
func Set(site string, fn func()) {
	SetErr(site, func() error { fn(); return nil })
}

// Clear disarms the hook at site.
func Clear(site string) {
	mu.Lock()
	defer mu.Unlock()
	delete(hooks, site)
	if len(hooks) == 0 {
		armed.Store(false)
	}
}

// Reset disarms every hook; defer it from any test that calls Set or
// SetErr.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	hooks = nil
	armed.Store(false)
}

// Panics returns a hook that panics with a constant message. Use it to
// prove panic containment: the injected panic is indistinguishable from
// a handler bug to the recovery middleware.
func Panics() func() {
	return func() { panic("faultinject: injected panic") }
}

// Sleeps returns a hook that blocks for d — injected latency for
// timeout and drain tests.
func Sleeps(d time.Duration) func() {
	return func() { time.Sleep(d) }
}

// CancelsAfter returns a hook that calls cancel on its n-th firing
// (1-based) and passes through otherwise — a deterministic way to
// cancel a context mid-batch.
func CancelsAfter(n int64, cancel func()) func() {
	var calls atomic.Int64
	return func() {
		if calls.Add(1) == n {
			cancel()
		}
	}
}

// FailsOnce returns a hook that invokes fail only on its first firing.
// Use with Panics() to prove a single fault does not take the process
// down: Set(site, FailsOnce(Panics())).
func FailsOnce(fail func()) func() {
	var done atomic.Bool
	return func() {
		if done.CompareAndSwap(false, true) {
			fail()
		}
	}
}

// Blocks returns a hook that signals entry on entered (if non-nil) and
// then blocks until release is closed — the building block for
// "request in flight" tests: park a request inside the handler, poke
// the server (drain, saturate, reload), then release.
func Blocks(entered chan<- struct{}, release <-chan struct{}) func() {
	return func() {
		if entered != nil {
			entered <- struct{}{}
		}
		<-release
	}
}
