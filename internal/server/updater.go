package server

// Updater is the fold-in end of the streaming ingest loop (DESIGN.md
// §15): it tails an append-only ingest log, grows the vocabularies and
// time grid as unseen users/items/intervals arrive, derives a grown
// bundle from the frozen boot bundle via index.AdvanceFrom, and
// publishes it through the server's atomic snapshot swap — so the
// server keeps answering queries on a consistent generation while the
// next one is built off to the side.
//
// Determinism and crash safety come from one invariant: the published
// bundle is a pure function of (boot bundle, log prefix). The updater
// keeps no authoritative state of its own — vocabularies are interned
// in log order, the stream cuboid is rebuilt from replayed records, and
// the model is always the boot bundle advanced over the whole stream,
// never the previous generation mutated. What a cycle carries over from
// the one before — the previous derivation, and through Reload the
// serving TA index — is a cache: each θ′ row, folded user and sorted
// list is taken over only where its inputs are, by comparison, the
// ones it was computed from, and is otherwise recomputed, so a cycle
// costs what its batch changed while publishing exactly what a
// derivation from nothing would. A process that crashes and reopens
// the same log replays from offset zero and republishes a bit-identical
// artifact (only the snapshot version counter, which counts in-process
// reloads, can differ).

import (
	"context"
	"time"

	"tcam/internal/api"
	"tcam/internal/cuboid"
	"tcam/internal/dataset"
	"tcam/internal/faultinject"
	"tcam/internal/index"
	"tcam/internal/ingest"
)

// DefaultUpdaterInterval is Run's poll period when the config leaves
// Interval at zero.
const DefaultUpdaterInterval = time.Second

// UpdaterConfig parameterizes an Updater. Nothing in it can change a
// published bit: the fold-in's parameters are constants of
// internal/model/tcam, so two updaters over one boot bundle and one log
// publish the same bytes.
type UpdaterConfig struct {
	// Interval is Run's log poll period (0 means
	// DefaultUpdaterInterval).
	Interval time.Duration
}

// Updater tails one ingest log on behalf of one Server. Not safe for
// concurrent use: Step and Run must not overlap (Run simply loops over
// Step, and tests drive Step directly for determinism).
type Updater struct {
	srv  *Server
	log  *ingest.Log
	boot *index.Bundle
	cfg  UpdaterConfig

	// Grown vocabularies: the boot names as a prefix, stream arrivals
	// appended in log order (which makes the dense indices a pure
	// function of the log prefix). Private to the updater: a generation
	// gets the names and indexes them itself.
	users, items *dataset.Vocab

	grid   dataset.TimeGrid // boot grid, Num grown as intervals open
	stream *cuboid.Cuboid   // events since boot (never boot cells)
	offset int64            // next log record to consume

	// observed is the next log record to feed the hot-user sketch. It
	// runs ahead of offset while a cycle is failing: the sketch sees a
	// record the first time a cycle reads it — so the publish that
	// consumes a user's events already ranks them — and never again on
	// the retries.
	observed int64

	// carry is the derivation behind the serving generation, from which
	// the next one inherits. It moves only together with offset, so a
	// failed cycle leaves it describing exactly the consumed prefix.
	carry *index.Advanced
}

// NewUpdater attaches an updater for lg to srv. boot must be the
// bundle srv was built from: it is the frozen base every published
// generation is derived from. The log is consumed from offset zero
// on every attach — restart recovery is a full deterministic replay.
func NewUpdater(srv *Server, lg *ingest.Log, boot *index.Bundle, cfg UpdaterConfig) (*Updater, error) {
	if err := boot.Validate(); err != nil {
		return nil, err
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultUpdaterInterval
	}
	u := &Updater{
		srv:    srv,
		log:    lg,
		boot:   boot,
		cfg:    cfg,
		users:  dataset.NewVocab(boot.Users),
		items:  dataset.NewVocab(boot.Items),
		grid:   boot.Grid,
		stream: cuboid.NewBuilder(len(boot.Users), boot.Grid.Num, len(boot.Items)).Build(),
	}
	srv.ingestStat.Store(&ingestStatus{end: lg.End(), publishedAt: time.Now()})
	return u, nil
}

// Step runs one ingest cycle: consume every record appended since the
// last cycle, extend the stream cuboid, derive a grown bundle from the
// boot bundle, and publish it. It reports whether a new generation
// was published. A failed cycle publishes nothing and leaves the
// consumed offset — and the stream cuboid and carried derivation tied to
// it — where it was; the next Step retries the same records
// (vocabulary interning is idempotent and the hot-user sketch counts a
// record once, so a half-failed cycle cannot skew indices or rankings).
func (u *Updater) Step() (bool, error) {
	start := time.Now()
	end, err := u.log.Refresh() // pick up records appended by the producer process
	if err != nil {
		return false, err
	}
	if end == u.offset {
		u.refreshStatus(end, time.Time{})
		return false, nil
	}
	if err := faultinject.FireErr("updater.fold"); err != nil {
		return false, err
	}
	g := dataset.NewGridder(u.users, u.items, u.grid)
	if err := u.log.Replay(u.offset, func(off int64, r ingest.Record) error {
		if _, err := g.Open(r.Time); err != nil {
			// Skipped, not failed: a cycle that failed on it would fail
			// again on every retry and after every restart.
			u.srv.Log.Warn("ingest: skipping log record", "offset", off, "err", err)
			return nil
		}
		user := u.users.Intern(r.User)
		if u.srv.hot != nil && off >= u.observed {
			// Seed the hot-user sketch from the event stream: users who
			// act also read, so publish-time precompute has a ranking
			// even before serve traffic arrives.
			u.srv.hot.Observe(uint64(user))
			u.observed = off + 1
		}
		return g.Add(dataset.Event{User: user, Item: u.items.Intern(r.Item), Time: r.Time, Score: r.Score})
	}); err != nil {
		return false, err
	}
	stream, err := u.stream.ApplyDelta(g.Delta())
	if err != nil {
		return false, err
	}
	grid, users, items := g.Grid, u.users.Names(), u.items.Names()
	adv, err := u.boot.AdvanceFrom(u.carry, stream, grid, users, items)
	if err != nil {
		return false, err
	}
	if err := faultinject.FireErr("updater.publish"); err != nil {
		return false, err
	}
	sn, warm, err := u.srv.publish(adv.Bundle)
	if err != nil {
		return false, err
	}
	u.stream, u.grid, u.offset, u.carry = stream, grid, end, adv
	u.refreshStatus(u.log.End(), time.Now())
	u.srv.Log.Info("ingest: published snapshot",
		"offset", u.offset, "users", len(users), "items", len(items), "intervals", u.grid.Num,
		"took", time.Since(start).Round(time.Microsecond),
		"lists_kept", sn.idx.ListsKept(), "lists_sorted", sn.idx.NumLists()-sn.idx.ListsKept(),
		"contexts_kept", adv.ContextsKept, "contexts_fit", adv.ContextsFit,
		"users_kept", adv.UsersKept, "users_folded", adv.UsersFolded,
		"lists_shared", sn.idx.ListsShared(), "lists", sn.idx.NumLists(), "tables_shared", sn.idx.TablesShared(),
		"slabs_shared", adv.SlabsShared, "transposes_shared", adv.TransposesShared,
		"warmed_users", warm.users, "warm_took", warm.took.Round(time.Microsecond), "warm_list_pops_per_user", warm.popsPerUser())
	return true, nil
}

// refreshStatus publishes the ingest view /healthz reports. A zero
// publishedAt keeps the previous publish time (the cycle consumed
// nothing).
func (u *Updater) refreshStatus(end int64, publishedAt time.Time) {
	prev := u.srv.ingestStat.Load()
	st := &ingestStatus{offset: u.offset, end: end, publishedAt: publishedAt}
	if publishedAt.IsZero() && prev != nil {
		st.publishedAt = prev.publishedAt
	}
	u.srv.ingestStat.Store(st)
}

// Run steps the updater every Interval until ctx is cancelled. It
// blocks; the caller owns the goroutine it runs on and is responsible
// for joining it (cmd/tcamserver closes a done channel around it). A
// failed step is logged and retried on the next tick — transient
// faults never kill the loop.
func (u *Updater) Run(ctx context.Context) {
	ticker := time.NewTicker(u.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			if _, err := u.Step(); err != nil {
				u.srv.Log.Warn("ingest: step failed (will retry)", "err", err)
			}
		}
	}
}

// ingestStatus is the updater's view /healthz exposes, swapped
// atomically so the handler never sees a half-updated triple.
type ingestStatus struct {
	offset      int64     // log records reflected by the serving snapshot
	end         int64     // durable log end as of the last cycle
	publishedAt time.Time // when the serving snapshot was derived
}

// ingestHealth renders the current status, or nil when no updater is
// attached.
func (s *Server) ingestHealth(now time.Time) *api.IngestHealth {
	st := s.ingestStat.Load()
	if st == nil {
		return nil
	}
	return &api.IngestHealth{
		LogOffset:        st.offset,
		LogEnd:           st.end,
		Lag:              st.end - st.offset,
		StalenessSeconds: now.Sub(st.publishedAt).Seconds(),
	}
}
