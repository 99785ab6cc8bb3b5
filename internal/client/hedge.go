package client

import (
	"context"
	"slices"
	"sync"
	"time"
)

// HedgerConfig parameterizes a Hedger; zero fields take defaults.
type HedgerConfig struct {
	// Quantile of observed latency after which the backup request fires
	// (default 0.9: hedge the slowest ~10% of requests).
	Quantile float64
	// Window is the number of recent latency observations retained
	// (default 64).
	Window int
	// MinSamples is how many observations the window needs before the
	// quantile estimate replaces Default (default 8).
	MinSamples int
	// Default is the hedge delay used until the window warms up
	// (default 50ms).
	Default time.Duration
	// MinDelay / MaxDelay clamp the estimate (defaults 1ms / 1s), so a
	// burst of microsecond cache hits cannot make the hedger duplicate
	// every request, nor a straggler storm disable hedging entirely.
	MinDelay time.Duration
	MaxDelay time.Duration
}

// Hedger tracks a sliding window of request latencies and turns its
// configured quantile into the delay after which a straggler deserves a
// backup request. Safe for concurrent use.
type Hedger struct {
	mu     sync.Mutex
	ring   []time.Duration
	sorted []time.Duration // Delay's scratch, as large as ring
	n      int             // observations stored (saturates at len(ring))
	idx    int             // next write position

	quantile   float64
	minSamples int
	def        time.Duration
	minDelay   time.Duration
	maxDelay   time.Duration
}

// NewHedger builds a Hedger from cfg.
func NewHedger(cfg HedgerConfig) *Hedger {
	h := &Hedger{
		quantile:   cfg.Quantile,
		minSamples: cfg.MinSamples,
		def:        cfg.Default,
		minDelay:   cfg.MinDelay,
		maxDelay:   cfg.MaxDelay,
	}
	if h.quantile <= 0 || h.quantile >= 1 {
		h.quantile = 0.9
	}
	window := cfg.Window
	if window <= 0 {
		window = 64
	}
	h.ring = make([]time.Duration, window)
	h.sorted = make([]time.Duration, window)
	if h.minSamples <= 0 {
		h.minSamples = 8
	}
	if h.minSamples > window {
		h.minSamples = window
	}
	if h.def <= 0 {
		h.def = 50 * time.Millisecond
	}
	if h.minDelay <= 0 {
		h.minDelay = time.Millisecond
	}
	if h.maxDelay <= 0 {
		h.maxDelay = time.Second
	}
	return h
}

// Observe records one successful request's latency.
func (h *Hedger) Observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ring[h.idx] = d
	h.idx = (h.idx + 1) % len(h.ring)
	if h.n < len(h.ring) {
		h.n++
	}
}

// Delay returns the current hedge trigger: the configured latency
// quantile over the window, clamped to [MinDelay, MaxDelay], or Default
// while fewer than MinSamples observations exist.
func (h *Hedger) Delay() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n < h.minSamples {
		return h.def
	}
	sorted := h.sorted[:h.n]
	copy(sorted, h.ring)
	slices.Sort(sorted)
	d := sorted[int(h.quantile*float64(h.n-1)+0.5)]
	if d < h.minDelay {
		d = h.minDelay
	}
	if d > h.maxDelay {
		d = h.maxDelay
	}
	return d
}

// Hedge runs call and, if it has not returned after delay, launches one
// identical backup attempt — the tail-latency discipline of "The Tail
// at Scale". The first success wins and the other attempt's context is
// cancelled immediately; an attempt that fails outright (before or
// after the hedge fires) does not win, so a fast connection error still
// waits for an in-flight sibling. A negative delay disables the backup.
//
// Returns the winning value and which attempt produced it (0 primary,
// 1 hedge). When every launched attempt fails, the first error is
// returned with attempt -1; when ctx itself ends first, its error is
// returned with attempt -1.
func Hedge[T any](ctx context.Context, delay time.Duration, call func(context.Context) (T, error)) (T, int, error) {
	type outcome struct {
		v   T
		idx int
		err error
	}
	results := make(chan outcome, 2)
	var cancels [2]context.CancelFunc
	defer func() {
		// Whatever path returns, both attempts end up cancelled: the
		// loser's work is abandoned, not leaked.
		for _, cancel := range cancels {
			if cancel != nil {
				cancel()
			}
		}
	}()
	launch := func(idx int) {
		actx, cancel := context.WithCancel(ctx)
		cancels[idx] = cancel
		go func() {
			v, err := call(actx)
			results <- outcome{v: v, idx: idx, err: err}
		}()
	}
	launch(0)
	outstanding := 1
	var timerC <-chan time.Time
	if delay >= 0 {
		timer := time.NewTimer(delay)
		defer timer.Stop()
		timerC = timer.C
	}
	var zero T
	var firstErr error
	for {
		select {
		case out := <-results:
			outstanding--
			if out.err == nil {
				return out.v, out.idx, nil
			}
			if firstErr == nil {
				firstErr = out.err
			}
			if outstanding == 0 {
				// Every launched attempt failed. If the primary failed
				// before the hedge timer there is no sibling to wait for,
				// and launching one now would be a retry — the caller's
				// policy, not Hedge's.
				return zero, -1, firstErr
			}
		case <-timerC:
			timerC = nil
			launch(1)
			outstanding++
		case <-ctx.Done():
			return zero, -1, ctx.Err()
		}
	}
}
