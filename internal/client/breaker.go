package client

import (
	"math/rand"
	"sync"
	"time"
)

// BreakerState is the circuit breaker's position: Closed (traffic
// flows), Open (traffic short-circuits to immediate failure), or
// HalfOpen (one probe in flight decides which way to settle).
type BreakerState int

// The three breaker states.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String names the state for health payloads and logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerConfig parameterizes a Breaker; zero fields take defaults.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive failures that trips
	// a closed breaker open (default 5).
	FailureThreshold int
	// OpenTimeout is the base cooldown an open breaker waits before
	// admitting a half-open probe (default 1s).
	OpenTimeout time.Duration
	// JitterFrac spreads the cooldown to [OpenTimeout,
	// OpenTimeout·(1+JitterFrac)] so a fleet of coordinators does not
	// probe a recovering shard in lockstep (default 0.2; 0 disables —
	// set a negative Seed-less config only in tests that pin times).
	JitterFrac float64
	// Seed makes the jitter stream reproducible (default 1).
	Seed int64
	// Now overrides the clock — the determinism seam for breaker tests
	// (default time.Now).
	Now func() time.Time
}

// Breaker is a per-target circuit breaker: consecutive failures trip it
// open, a cooled-down breaker admits exactly one half-open probe, and
// the probe's outcome either closes it or re-opens it with a fresh
// (jittered, deterministic) cooldown. Safe for concurrent use.
//
// The caller drives it: Allow before attempting, then exactly one of
// Success or Failure per allowed attempt. Each state change is decided
// under the breaker's lock and reported to exactly one caller, so a
// caller that logs or counts transitions records each once.
type Breaker struct {
	mu       sync.Mutex
	state    BreakerState
	failures int       // consecutive failures while closed
	probeAt  time.Time // when an open breaker admits its next probe
	probing  bool      // a half-open probe is in flight

	threshold   int
	openTimeout time.Duration
	jitterFrac  float64
	rng         *rand.Rand
	now         func() time.Time
}

// NewBreaker builds a Breaker from cfg.
func NewBreaker(cfg BreakerConfig) *Breaker {
	b := &Breaker{
		threshold:   cfg.FailureThreshold,
		openTimeout: cfg.OpenTimeout,
		jitterFrac:  cfg.JitterFrac,
		now:         cfg.Now,
	}
	if b.threshold <= 0 {
		b.threshold = 5
	}
	if b.openTimeout <= 0 {
		b.openTimeout = time.Second
	}
	switch {
	case cfg.JitterFrac < 0: // explicit "no jitter" (deterministic tests)
		b.jitterFrac = 0
	case cfg.JitterFrac > 0:
		b.jitterFrac = cfg.JitterFrac
	default:
		b.jitterFrac = 0.2
	}
	if b.now == nil {
		b.now = time.Now
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	b.rng = rand.New(rand.NewSource(seed))
	return b
}

// Allow reports whether an attempt may proceed and whether that attempt
// is the half-open probe, transitioning a cooled-down open breaker to
// half-open (and claiming the single probe slot) as a side effect. The
// probe is known only here, under the lock that admits it: a State read
// after Allow may already see a straggler's Success close the breaker.
// A false ok must not be followed by Success or Failure.
func (b *Breaker) Allow() (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, false
	case BreakerOpen:
		if b.now().Before(b.probeAt) {
			return false, false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true, true
	default: // half-open: one probe at a time
		if b.probing {
			return false, false
		}
		b.probing = true
		return true, true
	}
}

// Success records a successful attempt: the breaker closes and the
// consecutive-failure count resets. It reports whether that closed a
// breaker that was not closed.
func (b *Breaker) Success() (recovered bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	recovered = b.state != BreakerClosed
	b.state = BreakerClosed
	b.failures = 0
	b.probing = false
	return recovered
}

// Failure records a failed attempt and reports whether it tripped the
// breaker open. A half-open probe failure re-opens the breaker with a
// fresh jittered cooldown; enough consecutive closed-state failures
// trip it.
func (b *Breaker) Failure() (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.trip()
		return true
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.trip()
			return true
		}
	}
	// Open: a straggling failure from before the trip changes nothing.
	return false
}

// trip opens the breaker and schedules the next probe. The jitter draw
// comes from the breaker's seeded stream, so a test (and a replay) sees
// the same probe times. Callers hold mu.
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.failures = 0
	b.probing = false
	cooldown := b.openTimeout
	if b.jitterFrac > 0 {
		cooldown += time.Duration(b.jitterFrac * b.rng.Float64() * float64(b.openTimeout))
	}
	b.probeAt = b.now().Add(cooldown)
}

// State reports the breaker's current position without transitioning
// it (an open breaker past its cooldown still reads Open until an
// Allow claims the probe).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
