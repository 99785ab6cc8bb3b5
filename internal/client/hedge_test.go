package client

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

func TestHedgerQuantileDelay(t *testing.T) {
	h := NewHedger(HedgerConfig{Quantile: 0.9, Window: 10, MinSamples: 5, Default: 123 * time.Millisecond})
	if d := h.Delay(); d != 123*time.Millisecond {
		t.Fatalf("cold Delay() = %v, want the default", d)
	}
	for i := 1; i <= 10; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	// p90 over 1..10ms lands on the 9th/10th observation.
	if d := h.Delay(); d < 8*time.Millisecond || d > 10*time.Millisecond {
		t.Fatalf("warm Delay() = %v, want ~9ms", d)
	}
	// The window slides: flood with large latencies and the delay rises.
	for i := 0; i < 10; i++ {
		h.Observe(500 * time.Millisecond)
	}
	if d := h.Delay(); d != 500*time.Millisecond {
		t.Fatalf("Delay() = %v after the window slid, want 500ms", d)
	}
}

func TestHedgerClamps(t *testing.T) {
	h := NewHedger(HedgerConfig{Window: 4, MinSamples: 2, MinDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond})
	for i := 0; i < 4; i++ {
		h.Observe(time.Microsecond)
	}
	if d := h.Delay(); d != 10*time.Millisecond {
		t.Fatalf("Delay() = %v, want the 10ms floor", d)
	}
	for i := 0; i < 4; i++ {
		h.Observe(time.Minute)
	}
	if d := h.Delay(); d != 100*time.Millisecond {
		t.Fatalf("Delay() = %v, want the 100ms ceiling", d)
	}
}

// The sorted window Observe keeps incrementally is, after every
// observation, the ring copied and sorted — through warm-up, eviction
// and many tied latencies — so Delay's one index is the quantile the
// copy-then-sort gave.
func TestHedgerSortedWindowMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, window := range []int{1, 2, 5, 64} {
		h := NewHedger(HedgerConfig{Window: window, MinSamples: 1, MinDelay: time.Nanosecond, MaxDelay: time.Hour})
		for i := 0; i < 500; i++ {
			h.Observe(time.Duration(1+rng.Intn(20)) * time.Microsecond)
			want := slices.Clone(h.ring[:h.n])
			slices.Sort(want)
			if !slices.Equal(h.sorted, want) {
				t.Fatalf("window %d, observation %d: sorted window %v, ring sorted %v", window, i, h.sorted, want)
			}
			if d, q := h.Delay(), want[int(h.quantile*float64(h.n-1)+0.5)]; d != q {
				t.Fatalf("window %d, observation %d: Delay() = %v, copy-then-sort quantile %v", window, i, d, q)
			}
		}
	}
}
