// Package rescache is the epoch-versioned top-k result cache behind
// the serving tier (DESIGN.md §16). It maps a query identity
// (user, t, k, exclude-set hash) to an arbitrary immutable value,
// versioned by the serving snapshot's epoch: a publish bumps the epoch,
// which invalidates every cached entry logically in O(1) — stale
// entries are rejected by an epoch compare on lookup and lazily
// reclaimed, never scanned.
//
// The cache is a fixed-capacity, set-associative array of atomic
// entry pointers. Entries are immutable once published, so a lookup
// is two loads and a compare — no locks, no allocation — and an
// insert is a single CAS. Capacity never grows: under pressure an
// insert evicts within its own set, preferring same-key, then empty,
// then stale slots, and only then a live victim. The design borrows
// the epoch-stamped-membership trick from the server's excludeSet
// (O(1) invalidation by version bump instead of O(n) clears) and
// applies it cache-wide.
package rescache

import "sync/atomic"

// ways is the set associativity: an insert can only displace one of
// the `ways` slots its key hashes to, which bounds eviction scans and
// keeps hot keys from fighting over a single slot.
const ways = 4

// Key identifies one cached query. All fields participate in equality,
// so two queries collide only when every component — including the
// exclude-set hash and its cardinality — matches. User is the dense
// user index of the generation the epoch names: exact, never a hash.
type Key struct {
	User        uint64
	Time        int64
	K           int32
	NumExclude  int32
	ExcludeHash uint64
}

// hash mixes every key field into the slot-selection hash.
//
//tcam:hotpath
func (k Key) hash() uint64 {
	h := Mix64(k.User)
	h = Mix64(h ^ uint64(k.Time))
	h = Mix64(h ^ uint64(uint32(k.K))<<32 ^ uint64(uint32(k.NumExclude)))
	return Mix64(h ^ k.ExcludeHash)
}

// entry is one immutable published (epoch, key, value) binding.
type entry[V any] struct {
	key   Key
	epoch uint64
	val   V
}

// Cache is a fixed-capacity, epoch-versioned result cache. The zero
// value is not usable; construct with New. All methods are safe for
// concurrent use.
type Cache[V any] struct {
	slots []atomic.Pointer[entry[V]] // sets*ways, set-major
	mask  uint64                     // set count - 1 (power of two)
	tick  atomic.Uint64              // rotating victim cursor for full sets

	hits    atomic.Uint64
	misses  atomic.Uint64
	stale   atomic.Uint64 // misses caused by an epoch mismatch
	entries atomic.Int64  // live slots (any epoch), ≤ Capacity
}

// New builds a cache holding at most `capacity` entries (rounded up to
// a power-of-two multiple of the associativity, minimum one set).
func New[V any](capacity int) *Cache[V] {
	sets := 1
	for sets*ways < capacity {
		sets <<= 1
	}
	return &Cache[V]{
		slots: make([]atomic.Pointer[entry[V]], sets*ways),
		mask:  uint64(sets - 1),
	}
}

// Get returns the value cached for key at exactly the given epoch. An
// entry from any other epoch is a miss: it is counted as stale,
// cleared lazily (one CAS, no scans), and never returned — this is the
// whole invalidation story, there is no flush. The boolean reports a
// hit. Get performs no allocation.
//
//tcam:hotpath
func (c *Cache[V]) Get(epoch uint64, key Key) (V, bool) {
	base := (key.hash() & c.mask) * ways
	for i := uint64(0); i < ways; i++ {
		slot := &c.slots[base+i]
		e := slot.Load()
		if e == nil || e.key != key {
			continue
		}
		if e.epoch != epoch {
			// A previous generation's answer. Reclaim the slot so the
			// set regains capacity, then keep scanning — a later way
			// may hold this key at the live epoch.
			if slot.CompareAndSwap(e, nil) {
				c.entries.Add(-1)
			}
			c.stale.Add(1)
			continue
		}
		c.hits.Add(1)
		return e.val, true
	}
	c.misses.Add(1)
	var zero V
	return zero, false
}

// Put publishes a value for key at the given epoch. Victim preference
// inside the key's set: a slot already holding this key (any epoch),
// then an empty slot, then any stale slot, then a rotating live
// victim. Racing writers resolve by CAS — the loser simply drops its
// insert, which keeps the entries accounting exact.
func (c *Cache[V]) Put(epoch uint64, key Key, val V) {
	e := &entry[V]{key: key, epoch: epoch, val: val}
	base := (key.hash() & c.mask) * ways
	var victim *atomic.Pointer[entry[V]]
	var old *entry[V]
	rank := 0 // 0 none, 1 live victim, 2 stale, 3 empty, 4 same key
	for i := uint64(0); i < ways; i++ {
		slot := &c.slots[base+i]
		cur := slot.Load()
		switch {
		case cur != nil && cur.key == key:
			victim, old, rank = slot, cur, 4
		case cur == nil && rank < 3:
			victim, old, rank = slot, cur, 3
		case cur != nil && cur.epoch != epoch && rank < 2:
			victim, old, rank = slot, cur, 2
		case rank < 1:
			victim, old, rank = slot, cur, 1
		}
		if rank == 4 {
			break // same key always replaces in place: no duplicates
		}
	}
	if rank == 1 {
		// Every slot is live this epoch: rotate the victim so one hot
		// set degrades to round-robin instead of pinning slot 0.
		slot := &c.slots[base+c.tick.Add(1)%ways]
		victim, old = slot, slot.Load()
	}
	if victim.CompareAndSwap(old, e) && old == nil {
		c.entries.Add(1)
	}
}

// Counters is a point-in-time view of cache effectiveness.
type Counters struct {
	Hits    uint64 // lookups answered from the cache
	Misses  uint64 // lookups that fell through (Stale ⊆ Misses)
	Stale   uint64 // misses caused by an epoch mismatch
	Entries int64  // live slots right now, any epoch
}

// Counters snapshots the hit/miss accounting. Reads are individually
// atomic (the struct is not a consistent cut, which monitoring does
// not need).
func (c *Cache[V]) Counters() Counters {
	return Counters{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Stale:   c.stale.Load(),
		Entries: c.entries.Load(),
	}
}

// Mix64 is the splitmix64 finalizer: a cheap, statistically strong
// 64-bit mixer used for slot selection and set hashing.
//
//tcam:hotpath
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SetHash accumulates an order-independent, duplicate-sensitive hash
// of a set of 64-bit elements: XOR of mixed elements (commutative)
// folded with their mixed sum (so {a,a,b} and {b,c,c} cannot collide
// by XOR self-cancellation). Use one accumulator per exclude list and
// store Sum/Len in the Key.
type SetHash struct {
	xor uint64
	sum uint64
	n   int32
}

// Add folds one element into the set hash.
//
//tcam:hotpath
func (s *SetHash) Add(x uint64) {
	m := Mix64(x)
	s.xor ^= m
	s.sum += m
	s.n++
}

// Sum is the accumulated order-independent hash; zero for the empty set.
//
//tcam:hotpath
func (s *SetHash) Sum() uint64 {
	if s.n == 0 {
		return 0
	}
	return s.xor ^ Mix64(s.sum)
}

// Len is the number of elements folded in.
//
//tcam:hotpath
func (s *SetHash) Len() int32 { return s.n }
