package faultinject

// Error hooks for FireErr sites. The httpfault subpackage adapts them to
// the HTTP layer; it lives apart so this package — imported by the
// training and model code for plain hook sites — never links net/http.

import (
	"errors"
	"sync/atomic"
)

// ErrorsN returns an error hook whose first n firings return err and
// the rest nil — "the connection fails n times, then recovers", the
// exact shape a circuit-breaker recovery test needs.
func ErrorsN(n int64, err error) func() error {
	var calls atomic.Int64
	return func() error {
		if calls.Add(1) <= n {
			return err
		}
		return nil
	}
}

// ErrorAlways returns an error hook that always fails — a shard that is
// down and stays down.
func ErrorAlways(err error) func() error {
	return func() error { return err }
}

// ErrInjectedConn is the default error identity tests can match when
// arming .conn hooks (see httpfault.Transport) with ErrorAlways/ErrorsN.
var ErrInjectedConn = errors.New("faultinject: injected connection error")

// ErrInjectedTorn is the mid-body read error produced by .torn hooks.
var ErrInjectedTorn = errors.New("faultinject: injected torn response")
