package server

// Updater is the fold-in end of the streaming ingest loop (DESIGN.md
// §15): it tails an append-only ingest log, grows the vocabularies and
// time grid as unseen users/items/intervals arrive, re-derives a grown
// bundle from the frozen boot bundle via index.Advance, and publishes
// it through the server's atomic snapshot swap — so the server keeps
// answering queries on a consistent generation while the next one is
// built off to the side.
//
// Determinism and crash safety come from one invariant: the published
// bundle is a pure function of (boot bundle, log prefix). The updater
// keeps no authoritative state of its own — vocabularies are interned
// in log order, the stream cuboid is rebuilt from replayed records,
// and every cycle re-derives the model from the immutable boot bundle
// rather than mutating the previous generation. A process that crashes
// and reopens the same log replays from offset zero and republishes a
// bit-identical artifact (only the snapshot version counter, which
// counts in-process reloads, can differ).

import (
	"context"
	"time"

	"tcam/internal/api"
	"tcam/internal/cuboid"
	"tcam/internal/dataset"
	"tcam/internal/faultinject"
	"tcam/internal/index"
	"tcam/internal/ingest"
	"tcam/internal/rescache"
)

// DefaultUpdaterInterval is Run's poll period when the config leaves
// Interval at zero.
const DefaultUpdaterInterval = time.Second

// UpdaterConfig parameterizes an Updater.
type UpdaterConfig struct {
	// Interval is Run's log poll period (0 means
	// DefaultUpdaterInterval).
	Interval time.Duration
	// Advance configures the fold-in composition; the zero value takes
	// index.DefaultAdvanceConfig.
	Advance index.AdvanceConfig
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
	// function of the log prefix).
	users, items     []string
	userIdx, itemIdx map[string]int

	grid   dataset.TimeGrid // boot grid, Num grown as intervals open
	stream *cuboid.Cuboid   // events since boot (never boot cells)
	offset int64            // next log record to consume
}

// NewUpdater attaches an updater for lg to srv. boot must be the
// bundle srv was built from: it is the frozen base every published
// generation is re-derived from. The log is consumed from offset zero
// on every attach — restart recovery is a full deterministic replay.
func NewUpdater(srv *Server, lg *ingest.Log, boot *index.Bundle, cfg UpdaterConfig) (*Updater, error) {
	if err := boot.Validate(); err != nil {
		return nil, err
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultUpdaterInterval
	}
	if cfg.Advance == (index.AdvanceConfig{}) {
		cfg.Advance = index.DefaultAdvanceConfig()
	}
	u := &Updater{
		srv:     srv,
		log:     lg,
		boot:    boot,
		cfg:     cfg,
		users:   append([]string(nil), boot.Users...),
		items:   append([]string(nil), boot.Items...),
		userIdx: make(map[string]int, len(boot.Users)),
		itemIdx: make(map[string]int, len(boot.Items)),
		grid:    boot.Grid,
		stream:  cuboid.NewBuilder(len(boot.Users), boot.Grid.Num, len(boot.Items)).Build(),
	}
	for i, name := range u.users {
		u.userIdx[name] = i
	}
	for i, name := range u.items {
		u.itemIdx[name] = i
	}
	srv.ingestStat.Store(&ingestStatus{end: lg.End(), publishedAt: time.Now()})
	return u, nil
}

// intervalOf maps an event time onto the grown grid WITHOUT the upper
// clamp dataset.TimeGrid.IntervalOf applies: an event past the last
// known interval opens a new one instead of folding into the old edge.
// Times before the grid origin still clamp to interval zero.
func (u *Updater) intervalOf(when int64) int {
	g := u.grid
	if g.Length <= 0 || when < g.Origin {
		return 0
	}
	return int((when - g.Origin) / g.Length)
}

// Step runs one ingest cycle: consume every record appended since the
// last cycle, extend the stream cuboid, re-derive a grown bundle from
// the boot bundle, and publish it. It reports whether a new generation
// was published. A failed cycle publishes nothing and leaves the
// consumed offset where it was — the next Step retries the same
// records (vocabulary interning is idempotent, so a half-failed cycle
// cannot skew indices).
func (u *Updater) Step() (bool, error) {
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
	type event struct {
		u, t, v int
		score   float64
	}
	var evs []event
	numT := u.grid.Num
	if err := u.log.Replay(u.offset, func(_ int64, r ingest.Record) error {
		ui, ok := u.userIdx[r.User]
		if !ok {
			ui = len(u.users)
			u.userIdx[r.User] = ui
			u.users = append(u.users, r.User)
		}
		vi, ok := u.itemIdx[r.Item]
		if !ok {
			vi = len(u.items)
			u.itemIdx[r.Item] = vi
			u.items = append(u.items, r.Item)
		}
		t := u.intervalOf(r.Time)
		if t >= numT {
			numT = t + 1
		}
		if u.srv.hot != nil {
			// Seed the hot-user sketch from the event stream: users who
			// act also read, so publish-time precompute has a ranking
			// even before serve traffic arrives.
			u.srv.hot.Observe(rescache.HashString(r.User))
		}
		evs = append(evs, event{u: ui, t: t, v: vi, score: r.Score})
		return nil
	}); err != nil {
		return false, err
	}
	d := cuboid.NewDelta(len(u.users), numT, len(u.items))
	for _, e := range evs {
		if err := d.Add(e.u, e.t, e.v, e.score); err != nil {
			return false, err
		}
	}
	stream, err := u.stream.ApplyDelta(d)
	if err != nil {
		return false, err
	}
	grid := u.grid
	grid.Num = numT
	bundle, err := u.boot.Advance(stream, grid, u.users, u.items, u.cfg.Advance)
	if err != nil {
		return false, err
	}
	if err := faultinject.FireErr("updater.publish"); err != nil {
		return false, err
	}
	if _, err := u.srv.Reload(bundle); err != nil {
		return false, err
	}
	u.stream, u.grid, u.offset = stream, grid, end
	u.refreshStatus(u.log.End(), time.Now())
	return true, nil
}

// Offset returns the log offset the serving snapshot reflects.
func (u *Updater) Offset() int64 { return u.offset }

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
			if published, err := u.Step(); err != nil {
				u.srv.logf("ingest: step failed (will retry): %v", err)
			} else if published {
				u.srv.logf("ingest: published snapshot at log offset %d (%d users, %d items, %d intervals)",
					u.offset, len(u.users), len(u.items), u.grid.Num)
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
