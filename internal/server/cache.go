package server

// Result-cache layer (DESIGN.md §16): an epoch-versioned rescache in
// front of the TA search. The epoch is the generation version, so
// Reload's atomic pointer swap is also the whole cache invalidation.
// The one probe and the one insert live in generation.go; this file
// holds the options, publish-time precompute and the /healthz view.

import (
	"time"

	"tcam/internal/api"
	"tcam/internal/faultinject"
	"tcam/internal/rescache"
)

// hotTrackerWidth is the per-row counter count of the hot-user
// sketch: 16K counters ≈ 128KB for both rows, comfortably above any
// realistic hot set.
const hotTrackerWidth = 1 << 14

// WithCache enables the epoch-versioned result cache with capacity
// for roughly `entries` answers (rounded up; see rescache.New). A
// non-positive value leaves caching off, the default.
func WithCache(entries int) Option {
	return func(s *Server) {
		if entries > 0 {
			s.cache = rescache.New[Answer](entries)
			s.hot = rescache.NewHotTracker(hotTrackerWidth)
		}
	}
}

// WithHotPrecompute asks each publish to precompute the default-k
// answer of the n hottest users (serve-path traffic ranked by the
// frequency sketch, seeded from the ingest log when an updater is
// attached) before the snapshot goes live, so hot users never miss
// even on a fresh epoch. Requires WithCache; without it the option is
// inert.
func WithHotPrecompute(n int) Option {
	return func(s *Server) { s.precomputeHot = n }
}

// warmStats is what one publish-time precompute did: how many hot users
// it warmed, for how long, and how many sorted-list entries the
// Threshold Algorithm consumed doing it.
type warmStats struct {
	users    int
	took     time.Duration
	listPops int
}

// popsPerUser is the mean TA depth of a warmed answer.
func (w warmStats) popsPerUser() float64 {
	if w.users == 0 {
		return 0
	}
	return float64(w.listPops) / float64(w.users)
}

// precompute warms a not-yet-published generation's epoch with the
// default-shaped answers (k absent, no excludes, the live interval —
// where read traffic lands) of the hottest users, so by the time any
// request can name the new epoch its hot entries exist. A faultinject
// abort leaves a partial warm set — the rest simply miss into the TA —
// and never blocks the publish itself.
func (s *Server) precompute(sn *Generation) warmStats {
	var warm warmStats
	if s.cache == nil || s.precomputeHot <= 0 {
		return warm
	}
	start := time.Now()
	hot := s.hot.Top(len(sn.bundle.Users), s.precomputeHot)
	grid := sn.bundle.Grid
	sc := sn.Acquire()
	for _, u := range hot {
		if err := faultinject.FireErr("server.precompute"); err != nil {
			s.Log.Warn("precompute aborted", "warmed", warm.users, "hot", len(hot), "err", err)
			break
		}
		q := api.Query{User: sn.bundle.Users[u], Time: grid.Start(grid.Num - 1)}
		// resolve + search, not Answer: warming must neither count as a
		// miss nor feed the sketch it ranks by.
		if err := sc.resolve(&q); err == nil {
			_, st := sc.search()
			warm.users++
			warm.listPops += st.ListPops
		}
	}
	sc.Release()
	warm.took = time.Since(start)
	s.hotPrecomputed.Store(uint64(warm.users))
	s.hot.Decay() // publish cadence turns the sketch into a sliding window
	if warm.users > 0 {
		s.Log.Info("precomputed hot users", "k", api.DefaultK, "users", warm.users, "took", warm.took,
			"list_pops_per_user", warm.popsPerUser(), "epoch", sn.version)
	}
	return warm
}

// cacheHealth renders the cache view, or nil when caching is off.
func (s *Server) cacheHealth(sn *Generation) *api.CacheHealth {
	if s.cache == nil {
		return nil
	}
	ctr := s.cache.Counters()
	return &api.CacheHealth{
		Hits:           ctr.Hits,
		Misses:         ctr.Misses,
		Stale:          ctr.Stale,
		Entries:        ctr.Entries,
		Epoch:          sn.version,
		HotPrecomputed: s.hotPrecomputed.Load(),
	}
}
