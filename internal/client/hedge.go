package client

import (
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
// backup request. The window is kept twice: in arrival order, to know
// which observation leaves, and sorted, so the quantile is one index.
// Safe for concurrent use.
type Hedger struct {
	mu     sync.Mutex
	ring   []time.Duration
	sorted []time.Duration // the same observations as the ring, ascending
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
	h.sorted = make([]time.Duration, 0, window)
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

// Observe records one successful request's latency. In the sorted copy
// the observation it evicts, once the window is full, is found and
// removed by binary search, and d is inserted the same way.
func (h *Hedger) Observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == len(h.ring) {
		i, _ := slices.BinarySearch(h.sorted, h.ring[h.idx])
		h.sorted = slices.Delete(h.sorted, i, i+1)
	} else {
		h.n++
	}
	h.ring[h.idx] = d
	h.idx = (h.idx + 1) % len(h.ring)
	i, _ := slices.BinarySearch(h.sorted, d)
	h.sorted = slices.Insert(h.sorted, i, d)
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
	d := h.sorted[int(h.quantile*float64(h.n-1)+0.5)]
	if d < h.minDelay {
		d = h.minDelay
	}
	if d > h.maxDelay {
		d = h.maxDelay
	}
	return d
}
