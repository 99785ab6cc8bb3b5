package rescache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestPutGetRoundTrip(t *testing.T) {
	c := New[int](64)
	k := Key{User: 7, Time: 11, K: 10}
	if _, ok := c.Get(1, k); ok {
		t.Fatal("hit on an empty cache")
	}
	c.Put(1, k, 42)
	v, ok := c.Get(1, k)
	if !ok || v != 42 {
		t.Fatalf("Get = %d, %v; want 42, true", v, ok)
	}
	// A differing field anywhere in the key is a different entry.
	for _, other := range []Key{
		{User: 8, Time: 11, K: 10},
		{User: 7, Time: 12, K: 10},
		{User: 7, Time: 11, K: 9},
		{User: 7, Time: 11, K: 10, NumExclude: 1},
		{User: 7, Time: 11, K: 10, ExcludeHash: 3},
	} {
		if _, ok := c.Get(1, other); ok {
			t.Fatalf("key %+v hit entry stored under %+v", other, k)
		}
	}
}

func TestEpochMismatchIsMissAndReclaims(t *testing.T) {
	c := New[int](64)
	k := Key{User: 1, Time: 2, K: 3}
	c.Put(1, k, 10)
	if got := c.Counters().Entries; got != 1 {
		t.Fatalf("entries = %d, want 1", got)
	}
	if _, ok := c.Get(2, k); ok {
		t.Fatal("epoch-2 lookup hit an epoch-1 entry")
	}
	ctr := c.Counters()
	if ctr.Entries != 0 {
		t.Fatalf("stale entry not reclaimed: entries = %d", ctr.Entries)
	}
	if ctr.Stale != 1 || ctr.Misses != 1 || ctr.Hits != 0 {
		t.Fatalf("counters = %+v, want stale 1, misses 1, hits 0", ctr)
	}
	// The old epoch is gone for good: re-publish at the new epoch works.
	c.Put(2, k, 20)
	if v, ok := c.Get(2, k); !ok || v != 20 {
		t.Fatalf("Get after republish = %d, %v; want 20, true", v, ok)
	}
}

func TestSameKeyReplacesInPlace(t *testing.T) {
	c := New[int](64)
	k := Key{User: 5}
	c.Put(1, k, 1)
	c.Put(1, k, 2)
	c.Put(2, k, 3) // new epoch overwrites rather than duplicating
	if got := c.Counters().Entries; got != 1 {
		t.Fatalf("entries = %d after 3 same-key puts, want 1", got)
	}
	if v, ok := c.Get(2, k); !ok || v != 3 {
		t.Fatalf("Get = %d, %v; want 3, true", v, ok)
	}
}

func TestCapacityBounded(t *testing.T) {
	c := New[int](64)
	cap := len(c.slots)
	for i := 0; i < 10*cap; i++ {
		c.Put(1, Key{User: uint64(i)}, i)
	}
	if got := c.Counters().Entries; got > int64(cap) {
		t.Fatalf("entries = %d exceeds capacity %d", got, cap)
	}
	// A full set still accepts fresh keys by evicting a live victim.
	k := Key{User: 1 << 40}
	c.Put(1, k, 7)
	if v, ok := c.Get(1, k); !ok || v != 7 {
		t.Fatalf("insert into full cache lost: %d, %v", v, ok)
	}
}

// TestPropertyHitsAreExact drives a random workload over random epochs
// against a model map: every hit must return exactly the value the
// model says was last Put for that (epoch, key). Misses are always
// allowed (eviction); wrong values never.
func TestPropertyHitsAreExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := New[string](256)
	model := map[uint64]map[Key]string{}
	val := func(epoch uint64, k Key) string {
		return fmt.Sprintf("%d/%d/%d/%d", epoch, k.User, k.Time, k.K)
	}
	for i := 0; i < 20000; i++ {
		epoch := uint64(1 + rng.Intn(3))
		k := Key{
			User:       uint64(rng.Intn(40)),
			Time:       int64(rng.Intn(4)),
			K:          int32(1 + rng.Intn(3)),
			NumExclude: int32(rng.Intn(2)),
		}
		if rng.Intn(2) == 0 {
			if model[epoch] == nil {
				model[epoch] = map[Key]string{}
			}
			model[epoch][k] = val(epoch, k)
			c.Put(epoch, k, model[epoch][k])
		} else if got, ok := c.Get(epoch, k); ok {
			want, stored := model[epoch][k]
			if !stored {
				t.Fatalf("hit for (%d, %+v) that was never Put", epoch, k)
			}
			if got != want {
				t.Fatalf("hit value %q, want %q", got, want)
			}
		}
	}
	ctr := c.Counters()
	if ctr.Hits == 0 {
		t.Fatal("property test exercised no hits")
	}
}

// TestConcurrentEpochsNeverCross hammers the cache from writers on two
// epochs and readers on both; a reader must never see a value tagged
// with the other epoch. Run under -race this is also the data-race
// proof for the lock-free slots.
func TestConcurrentEpochsNeverCross(t *testing.T) {
	type tagged struct{ epoch uint64 }
	c := New[tagged](128)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				epoch := uint64(1 + rng.Intn(2))
				k := Key{User: uint64(rng.Intn(32))}
				if rng.Intn(2) == 0 {
					c.Put(epoch, k, tagged{epoch: epoch})
				} else if v, ok := c.Get(epoch, k); ok && v.epoch != epoch {
					select {
					case errs <- fmt.Sprintf("epoch %d lookup returned epoch %d value", epoch, v.epoch):
					default:
					}
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

func TestSetHashOrderIndependentDuplicateSensitive(t *testing.T) {
	sum := func(xs ...uint64) uint64 {
		var s SetHash
		for _, x := range xs {
			s.Add(x)
		}
		return s.Sum()
	}
	if sum(1, 2, 3) != sum(3, 1, 2) {
		t.Fatal("SetHash is order-dependent")
	}
	if sum(1, 2) == sum(1, 3) {
		t.Fatal("SetHash ignores membership")
	}
	// XOR alone would collapse {a,a,b} to {b}; the folded sum must not.
	if sum(1, 1, 2) == sum(2) || sum(1, 1, 2) == sum(2, 3, 3) {
		t.Fatal("SetHash cancels duplicates")
	}
	var empty SetHash
	if empty.Sum() != 0 || empty.Len() != 0 {
		t.Fatal("empty SetHash must sum to 0")
	}
}

func TestHotTrackerTopRanksSkew(t *testing.T) {
	tr := NewHotTracker(1024)
	const numUsers = 50
	// User 3 hottest, then 7, then 1; everyone else cold.
	for i := 0; i < 30; i++ {
		tr.Observe(3)
	}
	for i := 0; i < 20; i++ {
		tr.Observe(7)
	}
	for i := 0; i < 10; i++ {
		tr.Observe(1)
	}
	// A user beyond the vocabulary asked about is never ranked.
	tr.Observe(numUsers)
	got := tr.Top(numUsers, 3)
	want := []int{3, 7, 1}
	if len(got) != len(want) {
		t.Fatalf("Top = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Top = %v, want %v", got, want)
		}
	}
	// Never-seen users are not padded in, even with room for them.
	if got := tr.Top(numUsers, 10); len(got) != 3 {
		t.Fatalf("Top padded unseen users: %v", got)
	}
}

func TestHotTrackerCountNeverUnderestimates(t *testing.T) {
	tr := NewHotTracker(64) // tiny: force collisions
	rng := rand.New(rand.NewSource(2))
	exact := map[uint64]uint32{}
	for i := 0; i < 2000; i++ {
		u := uint64(rng.Intn(300))
		exact[u]++
		tr.Observe(u)
	}
	for u, want := range exact {
		if got := tr.Count(u); got < want {
			t.Fatalf("Count(%d) = %d underestimates exact %d", u, got, want)
		}
	}
}

func TestHotTrackerDecayHalves(t *testing.T) {
	tr := NewHotTracker(1024)
	const h = 5
	for i := 0; i < 9; i++ {
		tr.Observe(h)
	}
	tr.Decay()
	if got := tr.Count(h); got != 4 {
		t.Fatalf("Count after decay = %d, want 4", got)
	}
	tr.Decay()
	tr.Decay()
	if got := tr.Count(h); got != 1 {
		t.Fatalf("Count after three decays = %d, want 1", got)
	}
	tr.Decay() // 1 → 0: fades out entirely
	if got := tr.Top(h+1, 1); len(got) != 0 {
		t.Fatalf("fully-decayed user still ranked: %v", got)
	}
}
