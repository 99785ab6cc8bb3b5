package rescache

import (
	"sort"
	"sync/atomic"
)

// HotTracker is a depth-2 count-min sketch over dense user indices, the
// identity a Key carries: the serve path folds one Observe per request
// (two atomic increments, no allocation, no locks), and publish time
// asks for the N hottest users to precompute. Counts are upper bounds —
// collisions only ever inflate — which is the right bias for a
// precompute heuristic: a falsely-hot user costs one wasted warm entry,
// a falsely-cold hot user merely misses once.
type HotTracker struct {
	row0 []atomic.Uint32
	row1 []atomic.Uint32
	mask uint64
}

// minTrackerWidth keeps degenerate configurations honest; real servers
// want thousands of counters (a few KB).
const minTrackerWidth = 64

// NewHotTracker builds a sketch with `width` counters per row, rounded
// up to a power of two.
func NewHotTracker(width int) *HotTracker {
	w := minTrackerWidth
	for w < width {
		w <<= 1
	}
	return &HotTracker{
		row0: make([]atomic.Uint32, w),
		row1: make([]atomic.Uint32, w),
		mask: uint64(w - 1),
	}
}

// Observe records one request for user u. Safe for concurrent use from
// the serve path.
//
//tcam:hotpath
func (t *HotTracker) Observe(u uint64) {
	t.row0[u&t.mask].Add(1)
	t.row1[Mix64(u)&t.mask].Add(1)
}

// Count returns the sketch's estimate (an upper bound) of how many
// times u was observed since the last decay.
//
//tcam:hotpath
func (t *HotTracker) Count(u uint64) uint32 {
	a := t.row0[u&t.mask].Load()
	b := t.row1[Mix64(u)&t.mask].Load()
	if b < a {
		return b
	}
	return a
}

// Top returns the hottest of the users 0..numUsers, hottest first, at
// most n, skipping users the sketch never saw. Ties break by index
// ascending so the precompute set is deterministic for a given traffic
// history. This is a publish-time scan over the user vocabulary, not a
// serve-path operation.
func (t *HotTracker) Top(numUsers, n int) []int {
	if n <= 0 {
		return nil
	}
	type hot struct {
		u int
		c uint32
	}
	ranked := make([]hot, 0, numUsers)
	for u := 0; u < numUsers; u++ {
		if c := t.Count(uint64(u)); c > 0 {
			ranked = append(ranked, hot{u: u, c: c})
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].c != ranked[j].c {
			return ranked[i].c > ranked[j].c
		}
		return ranked[i].u < ranked[j].u
	})
	if n > len(ranked) {
		n = len(ranked)
	}
	out := make([]int, n)
	for i := range out {
		out[i] = ranked[i].u
	}
	return out
}

// Decay halves every counter. Called once per publish, it turns the
// sketch into an exponentially-weighted window: recent traffic
// dominates, a user hot last week but silent since fades in a few
// publishes, and counters cannot saturate.
func (t *HotTracker) Decay() {
	for i := range t.row0 {
		halve(&t.row0[i])
		halve(&t.row1[i])
	}
}

// halve atomically divides one counter by two, tolerating concurrent
// Observe increments (the loser of a race retries).
func halve(c *atomic.Uint32) {
	for {
		v := c.Load()
		if v == 0 {
			return
		}
		if c.CompareAndSwap(v, v/2) {
			return
		}
	}
}
