package shard

// Coordinator-side result caching (DESIGN.md §16). The coordinator
// has no snapshot of its own, so its cache epoch is derived from what
// the fleet reports: a hash of every (shard index, bundle version)
// pair observed in the latest scatter. Any shard publishing a new
// generation — or dropping out / coming back — changes the observed
// epoch, which logically invalidates every merged answer cached
// against the old fleet state.
//
// Degraded answers are additionally keyed by the missing-shard set
// (Key.Scope): a lookup expects the breaker-open set, an insert
// records the set that actually failed, so a degraded merge can never
// be served to a request that expects a healthy fleet, and vice
// versa. Because the epoch only advances when a scatter observes the
// fleet, every cachePassthroughEvery-th request skips its lookup and
// scatters unconditionally — bounding how long a republished shard
// can go unnoticed under a 100% hit rate.

import (
	"tcam/internal/api"
	"tcam/internal/client"
	"tcam/internal/rescache"
)

// cachePassthroughEvery forces one scatter per this many /recommend
// requests so the observed fleet epoch keeps refreshing even when
// everything hits.
const cachePassthroughEvery = 64

// cacheKey builds the lookup identity of one coordinator query. The
// user is hashed (the coordinator has no vocabulary); a hit therefore
// re-checks the response's User before serving. Scope carries the expected
// missing-shard set — the breaker-open shards — so degraded periods
// read their own entries.
func (c *Coordinator) cacheKey(q *api.Query) rescache.Key {
	var exh rescache.SetHash
	for _, id := range q.Exclude {
		exh.Add(rescache.HashString(id))
	}
	return rescache.Key{
		User:        rescache.HashString(q.User),
		Time:        q.Time,
		K:           int32(q.K),
		NumExclude:  exh.Len(),
		ExcludeHash: exh.Sum(),
		Scope:       c.expectedMissingScope(),
	}
}

// expectedMissingScope hashes the set of shards whose breakers are
// open right now — the fleet state a fresh scatter would miss.
func (c *Coordinator) expectedMissingScope() uint64 {
	var s rescache.SetHash
	for i, sc := range c.shards {
		if sc.breaker.State() == client.BreakerOpen {
			s.Add(uint64(i))
		}
	}
	return s.Sum()
}

// fleetEpochOf folds the scatter's observed (shard index, version)
// pairs into the cache epoch. Dead shards contribute nothing here —
// their absence is the Scope's business — so a shard bouncing back at
// a new version lands in a fresh epoch.
func fleetEpochOf(parts []*api.ShardPartial) uint64 {
	ep := uint64(0x9e3779b97f4a7c15)
	for i, p := range parts {
		if p == nil {
			continue
		}
		ep = rescache.Mix64(ep ^ rescache.Mix64(uint64(i)) ^ rescache.Mix64(p.Version))
	}
	return ep
}

// missingScopeOf hashes the shard indices that actually failed this
// scatter — the Scope a degraded merge is cached under.
func missingScopeOf(parts []*api.ShardPartial) uint64 {
	var s rescache.SetHash
	for i, p := range parts {
		if p == nil {
			s.Add(uint64(i))
		}
	}
	return s.Sum()
}

// cacheHealth renders the cache view, or nil when caching is off; the
// epoch is the fleet state hash the latest scatter observed.
func (c *Coordinator) cacheHealth() *api.CacheHealth {
	if c.cache == nil {
		return nil
	}
	ctr := c.cache.Counters()
	return &api.CacheHealth{
		Hits:    ctr.Hits,
		Misses:  ctr.Misses,
		Stale:   ctr.Stale,
		Entries: ctr.Entries,
		Epoch:   c.fleetEpoch.Load(),
	}
}
