package client

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock for deterministic breaker tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func testBreaker(clock *fakeClock) *Breaker {
	return NewBreaker(BreakerConfig{
		FailureThreshold: 3,
		OpenTimeout:      time.Second,
		JitterFrac:       0.5,
		Seed:             42,
		Now:              clock.Now,
	})
}

// allowed is Allow's first answer: whether the attempt may proceed.
func allowed(b *Breaker) bool {
	ok, _ := b.Allow()
	return ok
}

func TestBreakerTripsAfterThreshold(t *testing.T) {
	clock := newFakeClock()
	b := testBreaker(clock)
	for i := 0; i < 2; i++ {
		if !allowed(b) {
			t.Fatalf("closed breaker refused attempt %d", i)
		}
		b.Failure()
		if b.State() != BreakerClosed {
			t.Fatalf("tripped after only %d failures", i+1)
		}
	}
	if !allowed(b) {
		t.Fatal("closed breaker refused the third attempt")
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after 3 consecutive failures, want open", b.State())
	}
	if allowed(b) {
		t.Fatal("open breaker admitted traffic before the cooldown")
	}
}

// Failure and Success report a transition to exactly the call that
// caused it, so a caller logging them records each once.
func TestBreakerReportsEachTransitionOnce(t *testing.T) {
	clock := newFakeClock()
	b := testBreaker(clock)
	if b.Success() {
		t.Fatal("Success on a closed breaker reported a recovery")
	}
	if b.Failure() || b.Failure() {
		t.Fatal("Failure below the threshold reported a trip")
	}
	if !b.Failure() {
		t.Fatal("the failure that reached the threshold did not report the trip")
	}
	if b.Failure() {
		t.Fatal("a straggling failure on an open breaker reported a second trip")
	}
	clock.Advance(2 * time.Second)
	if !allowed(b) || !b.Failure() {
		t.Fatal("a failed probe did not report the re-trip")
	}
	clock.Advance(2 * time.Second)
	if !allowed(b) || !b.Success() {
		t.Fatal("a successful probe did not report the recovery")
	}
	if b.Success() {
		t.Fatal("Success after the recovery reported it again")
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	clock := newFakeClock()
	b := testBreaker(clock)
	for i := 0; i < 10; i++ { // alternating outcomes never reach the threshold
		b.Failure()
		b.Failure()
		b.Success()
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed (streak resets on success)", b.State())
	}
}

func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	clock := newFakeClock()
	b := testBreaker(clock)
	for i := 0; i < 3; i++ {
		b.Failure()
	}
	// Jitter is seeded: cooldown lies in [1s, 1.5s]. Before 1s no probe.
	clock.Advance(999 * time.Millisecond)
	if allowed(b) {
		t.Fatal("probe admitted before the base cooldown elapsed")
	}
	clock.Advance(501 * time.Millisecond) // past any jittered cooldown
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatalf("cooled-down breaker: Allow() = (%v, %v), want the probe admitted", ok, probe)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v after probe admitted, want half-open", b.State())
	}
	if allowed(b) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v after successful probe, want closed", b.State())
	}
	if ok, probe := b.Allow(); !ok || probe {
		t.Fatalf("recovered breaker: Allow() = (%v, %v), want traffic and no probe", ok, probe)
	}
}

// The probe is Allow's to report. A leg admitted before the trip can
// call Success between the probe's Allow and a State read after it:
// the breaker then reads closed, and only Allow's answer still says
// that the attempt it admitted is the probe, the one never hedged.
func TestBreakerAllowReportsTheProbe(t *testing.T) {
	clock := newFakeClock()
	b := testBreaker(clock)
	if ok, probe := b.Allow(); !ok || probe { // the straggler, admitted while closed
		t.Fatalf("closed breaker: Allow() = (%v, %v), want (true, false)", ok, probe)
	}
	for i := 0; i < 3; i++ { // the other legs trip it
		b.Failure()
	}
	clock.Advance(2 * time.Second)
	ok, probe := b.Allow()
	if !b.Success() { // the straggler answers
		t.Fatal("the straggler's Success did not close the half-open breaker")
	}
	if !ok || !probe {
		t.Fatalf("cooled-down breaker: Allow() = (%v, %v), want the probe", ok, probe)
	}
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state = %v after the straggler's Success, want closed", st)
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	clock := newFakeClock()
	b := testBreaker(clock)
	for i := 0; i < 3; i++ {
		b.Failure()
	}
	clock.Advance(2 * time.Second)
	if !allowed(b) {
		t.Fatal("cooled-down breaker refused the probe")
	}
	b.Failure() // probe fails: back to open with a fresh cooldown
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after failed probe, want open", b.State())
	}
	if allowed(b) {
		t.Fatal("re-opened breaker admitted traffic immediately")
	}
	clock.Advance(2 * time.Second)
	if !allowed(b) {
		t.Fatal("re-opened breaker never re-admitted a probe")
	}
}

// Two breakers with the same seed and clock see identical jittered
// probe times — the determinism the fault-injection suite leans on.
func TestBreakerJitterDeterministicPerSeed(t *testing.T) {
	clockA, clockB := newFakeClock(), newFakeClock()
	a, b := testBreaker(clockA), testBreaker(clockB)
	for i := 0; i < 3; i++ {
		a.Failure()
		b.Failure()
	}
	for _, step := range []time.Duration{
		100 * time.Millisecond, 500 * time.Millisecond, 150 * time.Millisecond,
		300 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
	} {
		clockA.Advance(step)
		clockB.Advance(step)
		ga, gb := allowed(a), allowed(b)
		if ga != gb {
			t.Fatalf("same seed diverged: Allow() = %v vs %v", ga, gb)
		}
		if ga {
			a.Failure() // probe fails, both re-open with the next jitter draw
			b.Failure()
		}
	}
}
