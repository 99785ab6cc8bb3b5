package shard

import (
	"context"
	"errors"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"tcam/internal/api"
	"tcam/internal/faultinject"
)

// hedgeLeg runs shard 0's leg of a fresh gather through the hedge alone
// (no breaker, no hedger) with the given delay, under ctx.
func hedgeLeg(ctx context.Context, f *fleet, delay time.Duration) (*api.ShardPartial, error) {
	g := f.c.gathers.Get().(*gather)
	defer f.c.gathers.Put(g)
	defer g.reset()
	q := api.Query{User: "user-1", Time: 105, K: 5}
	g.ctx, g.body = ctx, newQueryBody(&q)
	return g.legs[0].hedge(delay)
}

// countAttempts arms shard 0's .conn site to count the attempts that
// reach it and fail the ones fail picks (nil: none).
func countAttempts(fail func(n int64) error) *atomic.Int64 {
	var n atomic.Int64
	faultinject.SetErr("shard0.conn", func() error {
		if i := n.Add(1); fail != nil {
			return fail(i)
		}
		return nil
	})
	return &n
}

func TestHedgePrimaryWinsBeforeDelay(t *testing.T) {
	f := newFleet(t, 1, nil, nil)
	launches := countAttempts(nil)
	if part, err := hedgeLeg(context.Background(), f, time.Hour); err != nil || part == nil {
		t.Fatalf("hedge = (%v, %v), want the primary's partial", part, err)
	}
	if n := launches.Load(); n != 1 {
		t.Errorf("launched %d attempts, want 1 (no hedge for a fast primary)", n)
	}
}

// A straggling primary triggers the hedge; the backup's result wins and
// the straggler's request is cancelled, which the shard observes as its
// request context ending.
func TestHedgeFiresOnStragglerAndCancelsLoser(t *testing.T) {
	var queries atomic.Int64
	stragglerCancelled := make(chan struct{})
	f := newFleet(t, 1, nil, func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if queries.Add(1) == 1 {
				// The straggler answers only once cancelled; the server
				// watches for the hang-up once the body hit EOF.
				_, _ = io.Copy(io.Discard, r.Body)
				<-r.Context().Done()
				close(stragglerCancelled)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	if part, err := hedgeLeg(context.Background(), f, time.Millisecond); err != nil || part == nil {
		t.Fatalf("hedge = (%v, %v), want the backup's partial", part, err)
	}
	select {
	case <-stragglerCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("losing attempt was never cancelled")
	}
	if n := queries.Load(); n != 2 {
		t.Fatalf("shard saw %d queries, want 2 (primary + backup)", n)
	}
}

// The first SUCCESS wins: an attempt that fails fast does not beat a
// sibling that eventually succeeds, however the two are ordered.
func TestHedgeErrorDoesNotBeatSlowSuccess(t *testing.T) {
	hedgeFailed := make(chan struct{})
	var queries atomic.Int64
	f := newFleet(t, 1, nil, func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			queries.Add(1)
			select { // the slow attempt waits out its sibling's failure
			case <-hedgeFailed:
				h.ServeHTTP(w, r)
			case <-r.Context().Done():
			}
		})
	})
	countAttempts(func(n int64) error {
		if n == 1 {
			return nil
		}
		close(hedgeFailed)
		return errors.New("hedge lost the coin flip")
	})
	if part, err := hedgeLeg(context.Background(), f, time.Millisecond); err != nil || part == nil {
		t.Fatalf("hedge = (%v, %v), want the slow attempt's partial", part, err)
	}
	if n := queries.Load(); n != 1 {
		t.Fatalf("shard saw %d queries, want 1 (the failed attempt never reached it)", n)
	}
}

func TestHedgeAllAttemptsFail(t *testing.T) {
	f := newFleet(t, 1, nil, nil)
	// Both attempts enter the .delay site before either goes on, so the
	// backup is out before the primary fails.
	var entered atomic.Int64
	both := make(chan struct{})
	faultinject.Set("shard0.delay", func() {
		if entered.Add(1) == 2 {
			close(both)
		}
		<-both
	})
	wantErr := errors.New("shard down")
	countAttempts(func(int64) error { return wantErr })
	if _, err := hedgeLeg(context.Background(), f, 0); !errors.Is(err, wantErr) {
		t.Fatalf("hedge err = %v, want the shard error", err)
	}
	if n := entered.Load(); n != 2 {
		t.Fatalf("launched %d attempts, want 2", n)
	}
}

func TestHedgePrimaryFastFailureReturnsWithoutHedging(t *testing.T) {
	f := newFleet(t, 1, nil, nil)
	wantErr := errors.New("connection refused")
	launches := countAttempts(func(int64) error { return wantErr })
	if _, err := hedgeLeg(context.Background(), f, time.Hour); !errors.Is(err, wantErr) {
		t.Fatalf("hedge err = %v, want the primary's error", err)
	}
	if n := launches.Load(); n != 1 {
		t.Errorf("launched %d attempts, want 1 (fast failure is not a straggler)", n)
	}
}

func TestHedgeNegativeDelayDisablesBackup(t *testing.T) {
	f := newFleet(t, 1, nil, nil)
	faultinject.Set("shard0.delay", faultinject.Sleeps(10*time.Millisecond))
	launches := countAttempts(nil)
	if part, err := hedgeLeg(context.Background(), f, -1); err != nil || part == nil {
		t.Fatalf("hedge = (%v, %v), want the only attempt's partial", part, err)
	}
	if n := launches.Load(); n != 1 {
		t.Errorf("launched %d attempts with hedging disabled", n)
	}
}

// The caller's cancellation ends a primary parked at the .delay site:
// the hedge returns the context's error, not the parked hook's fate.
func TestHedgeContextCancellation(t *testing.T) {
	f := newFleet(t, 1, nil, nil)
	entered, release := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { close(release) })
	faultinject.Set("shard0.delay", faultinject.Blocks(entered, release))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-entered
		cancel()
	}()
	if _, err := hedgeLeg(ctx, f, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("hedge err = %v, want the caller's cancellation", err)
	}
}
