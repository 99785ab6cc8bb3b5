package server

// Tests for the streaming ingest updater (DESIGN.md §15): snapshot
// generations published as the log grows, /healthz ingest reporting,
// fault-injected cycle failures, and kill-and-resume republishing a
// bit-identical bundle.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"tcam/internal/api"
	"tcam/internal/cuboid"
	"tcam/internal/dataset"
	"tcam/internal/faultinject"
	"tcam/internal/index"
	"tcam/internal/ingest"
	"tcam/internal/testfixture"
)

// updaterFixture is one server + updater pair over a shared log dir.
func updaterFixture(tb testing.TB, dir string) (*Server, *Updater) {
	tb.Helper()
	boot := testfixture.Bundle(tb, 6, 12)
	srv, err := New(boot)
	if err != nil {
		tb.Fatal(err)
	}
	lg, err := ingest.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	up, err := NewUpdater(srv, lg, boot, UpdaterConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	return srv, up
}

func appendEvents(tb testing.TB, dir string, recs ...ingest.Record) {
	tb.Helper()
	lg, err := ingest.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := lg.Append(recs...); err != nil {
		tb.Fatal(err)
	}
}

func healthOf(t *testing.T, srv *Server) api.Health {
	t.Helper()
	w := serveHTTP(srv, http.MethodGet, "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("/healthz = %d", w.Code)
	}
	var h api.Health
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	return h
}

// snapshotBytes serializes the serving bundle, the bit-exact identity
// tests compare.
func snapshotBytes(t *testing.T, srv *Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := srv.snapshot().bundle.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestUpdaterPublishesGrowingGenerations drives the updater through
// three published generations while the user base, the catalog and the
// time grid all grow, checking the serving surface after each.
func TestUpdaterPublishesGrowingGenerations(t *testing.T) {
	dir := t.TempDir()
	srv, up := updaterFixture(t, dir)

	// Empty log: nothing to publish.
	if published, err := up.Step(); err != nil || published {
		t.Fatalf("Step on empty log = (%v, %v), want (false, nil)", published, err)
	}
	if h := healthOf(t, srv); h.Version != 1 || h.Ingest == nil || h.Ingest.Lag != 0 {
		t.Fatalf("boot health = %+v", h)
	}

	// Generation 2: a brand-new user rates existing items.
	appendEvents(t, dir,
		ingest.Record{User: "user-late", Item: "item-3", Time: 105, Score: 2},
		ingest.Record{User: "user-late", Item: "item-7", Time: 115, Score: 1},
	)
	if published, err := up.Step(); err != nil || !published {
		t.Fatalf("Step = (%v, %v), want (true, nil)", published, err)
	}
	h := healthOf(t, srv)
	if h.Version != 2 || h.Users != 7 || h.Items != 12 || h.Intervals != 3 {
		t.Fatalf("generation 2 health = %+v", h)
	}
	if h.Ingest == nil || h.Ingest.LogOffset != 2 || h.Ingest.Lag != 0 {
		t.Fatalf("generation 2 ingest = %+v", h.Ingest)
	}
	w := serveHTTP(srv, http.MethodGet, "/recommend?user=user-late&time=105&k=3", "")
	if w.Code != http.StatusOK {
		t.Fatalf("/recommend for folded-in user = %d: %s", w.Code, w.Body.String())
	}

	// Generation 3: a new item and a new interval (time 151 is past the
	// boot grid's last edge, opening intervals 3..5).
	appendEvents(t, dir,
		ingest.Record{User: "user-2", Item: "item-new", Time: 151, Score: 3},
		ingest.Record{User: "user-late", Item: "item-3", Time: 153, Score: 1},
	)
	if published, err := up.Step(); err != nil || !published {
		t.Fatalf("Step = (%v, %v), want (true, nil)", published, err)
	}
	h = healthOf(t, srv)
	if h.Version != 3 || h.Users != 7 || h.Items != 13 || h.Intervals != 6 {
		t.Fatalf("generation 3 health = %+v", h)
	}

	// Generation 4: more events for an already-folded user refine their
	// interests (re-derived from the frozen boot + full stream).
	appendEvents(t, dir, ingest.Record{User: "user-late", Item: "item-1", Time: 125, Score: 4})
	if published, err := up.Step(); err != nil || !published {
		t.Fatal("fourth generation did not publish")
	}
	if h = healthOf(t, srv); h.Version != 4 || h.Ingest.LogOffset != 5 {
		t.Fatalf("generation 4 health = %+v ingest=%+v", h, h.Ingest)
	}
	// Queries at a streamed interval work end to end.
	w = serveHTTP(srv, http.MethodGet, "/recommend?user=user-2&time=151&k=3", "")
	if w.Code != http.StatusOK {
		t.Fatalf("/recommend at streamed interval = %d: %s", w.Code, w.Body.String())
	}
}

// TestUpdaterStepFailureKeepsServing: a fault-injected cycle publishes
// nothing, leaves the serving snapshot intact, and the next cycle
// consumes the same records successfully.
func TestUpdaterStepFailureKeepsServing(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	srv, up := updaterFixture(t, dir)
	appendEvents(t, dir, ingest.Record{User: "user-late", Item: "item-2", Time: 101, Score: 1})

	injected := errors.New("injected fold failure")
	faultinject.SetErr("updater.fold", faultinject.ErrorsN(1, injected))
	if _, err := up.Step(); !errors.Is(err, injected) {
		t.Fatalf("Step error = %v, want injected", err)
	}
	if h := healthOf(t, srv); h.Version != 1 || h.Users != 6 {
		t.Fatalf("failed cycle mutated serving state: %+v", h)
	}
	if published, err := up.Step(); err != nil || !published {
		t.Fatalf("retry Step = (%v, %v), want (true, nil)", published, err)
	}
	if h := healthOf(t, srv); h.Version != 2 || h.Users != 7 {
		t.Fatalf("retry did not publish: %+v", h)
	}
	// The same applies to a failure at the publish site.
	appendEvents(t, dir, ingest.Record{User: "user-late", Item: "item-2", Time: 111, Score: 1})
	faultinject.SetErr("updater.publish", faultinject.ErrorsN(1, injected))
	if _, err := up.Step(); !errors.Is(err, injected) {
		t.Fatalf("Step error = %v, want injected", err)
	}
	if published, err := up.Step(); err != nil || !published {
		t.Fatalf("publish retry Step = (%v, %v), want (true, nil)", published, err)
	}
}

// TestUpdaterKillAndResume is the crash-recovery acceptance test: a
// process killed mid-cycle loses no events, because a fresh process
// over the same log directory replays from offset zero and re-derives
// — bit for bit — the same bundle the dead one would have published
// (only the in-process version counter differs).
func TestUpdaterKillAndResume(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	srvA, upA := updaterFixture(t, dir)
	var logA, logB bytes.Buffer
	srvA.Log = slog.New(slog.NewTextHandler(&logA, nil))

	// Records 1 to 4 are ones no process could fold in: one would open
	// fifty million intervals, and three — framed by a writer that is not
	// Append, which refuses them — fail Record.Validate, the last being
	// no JSON at all. Each is skipped, by the survivor and by every
	// restart alike, and the records on either side of them are
	// published.
	appendEvents(t, dir,
		ingest.Record{User: "user-late", Item: "item-3", Time: 105, Score: 2},
		farFuture,
	)
	testfixture.AppendFrames(t, dir,
		ingest.Record{User: "user-zero", Item: "item-zero", Time: 106, Score: 0},
		ingest.Record{User: "", Item: "item-orphan", Time: 107, Score: 1},
		[]byte("not json"),
	)
	appendEvents(t, dir, ingest.Record{User: "user-later", Item: "item-new", Time: 141, Score: 1})
	if _, err := upA.Step(); err != nil {
		t.Fatal(err)
	}

	// More events arrive; the process dies mid-fold (fault injected),
	// having published nothing for them.
	appendEvents(t, dir, ingest.Record{User: "user-late", Item: "item-new", Time: 142, Score: 5})
	injected := errors.New("injected crash")
	faultinject.SetErr("updater.fold", faultinject.ErrorsN(1, injected))
	if _, err := upA.Step(); !errors.Is(err, injected) {
		t.Fatalf("Step error = %v, want injected crash", err)
	}
	faultinject.Reset()

	// "Restart": a fresh server + updater over the same directory.
	srvB, upB := updaterFixture(t, dir)
	srvB.Log = slog.New(slog.NewTextHandler(&logB, nil))
	if published, err := upB.Step(); err != nil || !published {
		t.Fatalf("resume Step = (%v, %v), want (true, nil)", published, err)
	}

	// The survivor retries and publishes; both processes must now serve
	// byte-identical bundles covering every appended event.
	if published, err := upA.Step(); err != nil || !published {
		t.Fatalf("survivor Step = (%v, %v), want (true, nil)", published, err)
	}
	if upA.offset != 7 || upB.offset != 7 {
		t.Fatalf("offsets after resume: survivor %d, restarted %d, want 7", upA.offset, upB.offset)
	}
	for _, srv := range []*Server{srvA, srvB} {
		if h := healthOf(t, srv); h.Users != 8 || h.Items != 13 || h.Intervals != 5 {
			t.Fatalf("serving %d users, %d items, %d intervals, want 8, 13, 5: a skipped record was not skipped whole", h.Users, h.Items, h.Intervals)
		}
		if w := serveHTTP(srv, http.MethodGet, "/recommend?user=user-later&time=142&k=3", ""); w.Code != http.StatusOK {
			t.Fatalf("a user behind the skipped records answers %d: %s", w.Code, w.Body.String())
		}
	}
	for name, logs := range map[string]string{"survivor": logA.String(), "restarted": logB.String()} {
		var skipped []string
		for _, line := range strings.Split(logs, "\n") {
			if strings.Contains(line, `msg="ingest: skipping log record"`) {
				_, off, _ := strings.Cut(line, " offset=")
				off, _, _ = strings.Cut(off, " ")
				skipped = append(skipped, off)
			}
		}
		if !reflect.DeepEqual(skipped, []string{"1", "2", "3", "4"}) {
			t.Errorf("%s warned of skipping offsets %v, want [1 2 3 4]:\n%s", name, skipped, logs)
		}
	}
	a, b := snapshotBytes(t, srvA), snapshotBytes(t, srvB)
	if !bytes.Equal(a, b) {
		t.Fatal("restarted updater published a different bundle than the survivor")
	}
}

// TestUpdaterDeterministicAcrossBatching: whether events arrive in one
// batch or dribble in across many cycles, the final published bundle
// is identical — the pure-function-of-log-prefix invariant.
func TestUpdaterDeterministicAcrossBatching(t *testing.T) {
	recs := []ingest.Record{
		{User: "user-late", Item: "item-3", Time: 105, Score: 2},
		{User: "user-later", Item: "item-new", Time: 141, Score: 1},
		{User: "user-late", Item: "item-1", Time: 118, Score: 3},
		{User: "user-0", Item: "item-new", Time: 144, Score: 2},
	}
	dirOne, dirMany := t.TempDir(), t.TempDir()

	srvOne, upOne := updaterFixture(t, dirOne)
	appendEvents(t, dirOne, recs...)
	if _, err := upOne.Step(); err != nil {
		t.Fatal(err)
	}

	srvMany, upMany := updaterFixture(t, dirMany)
	for _, r := range recs {
		appendEvents(t, dirMany, r)
		if _, err := upMany.Step(); err != nil {
			t.Fatal(err)
		}
	}

	if !bytes.Equal(snapshotBytes(t, srvOne), snapshotBytes(t, srvMany)) {
		t.Fatal("published bundle depends on event batching")
	}
}

// TestTwoUpdatersPublishTheSameBytes: two processes replaying one log
// over one boot bundle — a monolith and a cached shard, polling at
// different periods — publish byte-identical bundles, because nothing
// that shapes θ or λ is configurable: the updater's config is its poll
// period and the fold-in's is empty.
func TestTwoUpdatersPublishTheSameBytes(t *testing.T) {
	if n := reflect.TypeOf(UpdaterConfig{}).NumField(); n != 1 {
		t.Errorf("UpdaterConfig has %d fields; only Interval cannot change a published bit", n)
	}
	if n := reflect.TypeOf(index.AdvanceConfig{}).NumField(); n != 0 {
		t.Errorf("index.AdvanceConfig has %d fields, want none", n)
	}
	dir := t.TempDir()
	boot := testfixture.Bundle(t, 6, 12)
	var published [2][]byte
	for i, opts := range [][]Option{nil, {WithItemRange(0, 6), WithCache(64), WithHotPrecompute(2)}} {
		srv, err := New(boot, opts...)
		if err != nil {
			t.Fatal(err)
		}
		lg, err := ingest.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		up, err := NewUpdater(srv, lg, boot, UpdaterConfig{Interval: time.Duration(i+1) * time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			for _, batch := range chunkedStream() {
				appendEvents(t, dir, batch...)
				if _, err := up.Step(); err != nil {
					t.Fatal(err)
				}
			}
		} else if _, err := up.Step(); err != nil { // the whole log in one cycle
			t.Fatal(err)
		}
		published[i] = snapshotBytes(t, srv)
	}
	if !bytes.Equal(published[0], published[1]) {
		t.Fatal("two updaters over one boot bundle and one log published different bundles")
	}
}

// TestReloadRefusedUnderUpdater: with an updater attached a reload from
// the source would be replaced by the next publish (or served
// indefinitely if no event arrives), so SIGHUP and /admin/reload are
// refused with 409 and one log record, the source is never read, and
// the serving generation stays the updater's. Reload itself — the
// updater's own door — is untouched.
func TestReloadRefusedUnderUpdater(t *testing.T) {
	dir := t.TempDir()
	boot := testfixture.Bundle(t, 6, 12)
	var logs bytes.Buffer
	loads := 0
	srv, err := New(boot, WithLogger(slog.New(slog.NewTextHandler(&logs, nil))),
		WithReloader(func() (*index.Bundle, error) { loads++; return boot, nil }))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := srv.ReloadFromSource(); err != nil || v != 2 {
		t.Fatalf("reload before an updater attaches: version %d, %v; want 2", v, err)
	}
	lg, err := ingest.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	up, err := NewUpdater(srv, lg, boot, UpdaterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	appendEvents(t, dir, ingest.Record{User: "user-late", Item: "item-3", Time: 105, Score: 2})
	if _, err := up.Step(); err != nil {
		t.Fatal(err)
	}
	serving, before := srv.snapshot(), healthOf(t, srv)
	logs.Reset()

	var refused *api.Error
	if _, err := srv.ReloadFromSource(); !errors.As(err, &refused) || refused.Status != http.StatusConflict {
		t.Errorf("ReloadFromSource under an updater: %v, want a 409 *api.Error", err)
	}
	if w := serveHTTP(srv, http.MethodPost, "/admin/reload", ""); w.Code != http.StatusConflict {
		t.Errorf("/admin/reload under an updater: status %d, want 409: %s", w.Code, w.Body.String())
	}
	if n := strings.Count(logs.String(), `msg="reload failed, keeping current bundle"`); n != 2 {
		t.Errorf("%d log records for 2 refused reloads, want one each:\n%s", n, logs.String())
	}
	if loads != 1 {
		t.Errorf("the reload source was read %d times, want only the pre-updater once", loads)
	}
	if srv.snapshot() != serving {
		t.Error("a refused reload replaced the serving generation")
	}
	if after := healthOf(t, srv); after.Version != before.Version || after.Users != before.Users {
		t.Errorf("/healthz moved across a refused reload: %+v -> %+v", before, after)
	}
	if v, err := srv.Reload(boot); err != nil || v != before.Version+1 {
		t.Errorf("Reload(b) under an updater: version %d, %v; want %d", v, err, before.Version+1)
	}
}

// TestUpdaterValidation: NewUpdater rejects a bundle that fails
// validation rather than tailing a log it can never advance from.
func TestUpdaterValidation(t *testing.T) {
	boot := testfixture.Bundle(t, 4, 8)
	srv, err := New(boot)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := ingest.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	broken := *boot
	broken.Users = boot.Users[:2]
	if _, err := NewUpdater(srv, lg, &broken, UpdaterConfig{}); err == nil {
		t.Fatal("NewUpdater accepted an invalid boot bundle")
	}
	up, err := NewUpdater(srv, lg, boot, UpdaterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if up.cfg.Interval != DefaultUpdaterInterval {
		t.Fatalf("zero config not defaulted: %+v", up.cfg)
	}
}

// farFuture is a record no restart could survive folding in: it would
// open fifty million intervals past the fixture's grid (origin 100,
// length 10), each costing a context list and a θ′ row.
var farFuture = ingest.Record{User: "user-far", Item: "item-far", Time: 100 + 5e7*10, Score: 1}

// chunkedStream is the log of TestUpdaterChunkingInvariance as the
// batches it is appended in. Boot intervals cover times [100,130); the
// stream opens intervals 3 to 8. Hand-placed among seeded filler: an
// event landing in a stream interval older than the open one, a batch
// that brings no new user, item or interval, a re-rating of an
// existing cell, an interval jump that leaves an interval empty, and a
// record fifty million intervals out, which every cycle must skip.
func chunkedStream() [][]ingest.Record {
	rng := rand.New(rand.NewSource(21))
	var batches [][]ingest.Record
	now := int64(104)
	for b := 0; b < 21; b++ {
		var batch []ingest.Record
		for i := 0; i <= rng.Intn(4); i++ {
			now += int64(rng.Intn(4))
			r := ingest.Record{
				User:  fmt.Sprintf("user-%d", rng.Intn(6)),
				Item:  fmt.Sprintf("item-%d", rng.Intn(12)),
				Time:  now,
				Score: float64(1 + rng.Intn(3)),
			}
			if rng.Intn(3) == 0 {
				r.User = fmt.Sprintf("late-%d", rng.Intn(b+1))
			}
			if rng.Intn(5) == 0 {
				r.Item = fmt.Sprintf("fresh-%d", rng.Intn(b/3+1))
			}
			batch = append(batch, r)
		}
		switch b {
		case 5: // not a gap to open: skipped, and its names with it
			batch = append(batch, farFuture)
		case 9: // back in interval 3 while a later one is open
			batch = append(batch, ingest.Record{User: "late-1", Item: "item-3", Time: 131, Score: 2})
		case 12: // nothing new: known user, known item, the open interval, twice
			batch = []ingest.Record{
				{User: "user-2", Item: "item-5", Time: now, Score: 1},
				{User: "user-2", Item: "item-5", Time: now, Score: 2},
			}
		case 16: // skips an interval entirely
			now += 21
			batch = append(batch, ingest.Record{User: "late-16", Item: "fresh-far", Time: now, Score: 1})
		}
		batches = append(batches, batch)
	}
	return batches
}

// TestUpdaterChunkingInvariance: however the log is cut into cycles —
// one cycle for all of it, seven cycles, a cycle per append batch with
// failed cycles retried in between — the updater ends up serving the
// same bundle bytes and the same /recommend bytes. The chunked runs
// inherit θ′ rows, folded users and sorted lists from cycle to cycle;
// the single cycle derives everything from nothing, so this is the
// carried-over path checked against the stateless one.
func TestUpdaterChunkingInvariance(t *testing.T) {
	defer faultinject.Reset()
	batches := chunkedStream()
	stream := map[string]bool{}
	for _, batch := range batches {
		for _, r := range batch {
			stream[r.User] = true
		}
	}
	queries := []string{ // boot users, then stream-born ones, at boot and stream intervals
		"/recommend?user=user-0&time=105&k=5",
		"/recommend?user=user-3&time=128&k=12",
		"/recommend?user=user-2&time=150&k=3",
		"/recommend?user=late-1&time=131&k=4&exclude=item-3",
		"/recommend?user=late-16&time=400&k=20",
	}
	for b := 0; b < len(batches); b++ {
		if user := fmt.Sprintf("late-%d", b); stream[user] {
			queries = append(queries, fmt.Sprintf("/recommend?user=%s&time=%d&k=%d", user, 125+7*b, 3+b))
		}
	}
	for _, kind := range []struct {
		name       string
		k2         int
		background float64
	}{{"ITCAM", 0, 0}, {"TTCAM", 3, 0}, {"TTCAM+background", 3, 0.1}} {
		t.Run(kind.name, func(t *testing.T) {
			boot := testfixture.BundleOf(t, testfixture.Data(6, 12), kind.k2, kind.background)
			type outcome struct {
				bundle  []byte
				answers []string
			}
			// run consumes the log in cycles of perCycle batches; with
			// faults, every third cycle first fails at the fold site and
			// every fourth at the publish site.
			run := func(perCycle int, faults bool) (outcome, *Updater) {
				dir := t.TempDir()
				srv, err := New(boot)
				if err != nil {
					t.Fatal(err)
				}
				lg, err := ingest.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				up, err := NewUpdater(srv, lg, boot, UpdaterConfig{})
				if err != nil {
					t.Fatal(err)
				}
				var inherited index.Advanced
				lists := 0
				for lo, cycle := 0, 0; lo < len(batches); lo, cycle = lo+perCycle, cycle+1 {
					for _, batch := range batches[lo:min(lo+perCycle, len(batches))] {
						appendEvents(t, dir, batch...)
					}
					injected := errors.New("injected")
					if faults && cycle%3 == 2 {
						faultinject.SetErr("updater.fold", faultinject.ErrorsN(1, injected))
					}
					if faults && cycle%4 == 3 {
						faultinject.SetErr("updater.publish", faultinject.ErrorsN(2, injected))
					}
					for {
						published, err := up.Step()
						if errors.Is(err, injected) {
							continue
						}
						if err != nil || !published {
							t.Fatalf("cycle %d: Step = (%v, %v)", cycle, published, err)
						}
						break
					}
					inherited.ContextsKept += up.carry.ContextsKept
					inherited.UsersKept += up.carry.UsersKept
					lists += srv.snapshot().idx.ListsKept()
				}
				if perCycle < len(batches) && (inherited.ContextsKept == 0 || inherited.UsersKept == 0 || lists == 0) {
					t.Errorf("%d batches per cycle inherited %d contexts, %d users, %d lists: the carried path was not exercised",
						perCycle, inherited.ContextsKept, inherited.UsersKept, lists)
				}
				out := outcome{bundle: snapshotBytes(t, srv)}
				if h := healthOf(t, srv); h.Intervals != 9 || h.Ingest.Lag != 0 {
					t.Errorf("%d batches per cycle: serving %d intervals at lag %d, want the 9 the stream reaches, at 0", perCycle, h.Intervals, h.Ingest.Lag)
				}
				if w := serveHTTP(srv, http.MethodGet, "/recommend?user="+farFuture.User+"&time=105", ""); w.Code != http.StatusNotFound {
					t.Errorf("%d batches per cycle: the skipped record's user answers %d", perCycle, w.Code)
				}
				for _, q := range queries {
					w := serveHTTP(srv, http.MethodGet, q, "")
					if w.Code != http.StatusOK {
						t.Fatalf("%s = %d: %s", q, w.Code, w.Body.String())
					}
					out.answers = append(out.answers, w.Body.String())
				}
				return out, up
			}
			want, _ := run(len(batches), false)
			for _, tc := range []struct {
				label    string
				perCycle int
				faults   bool
			}{
				{"7 cycles", 3, false},
				{"a cycle per batch", 1, false},
				{"a cycle per batch, failed cycles retried", 1, true},
			} {
				got, up := run(tc.perCycle, tc.faults)
				if !bytes.Equal(got.bundle, want.bundle) {
					t.Errorf("%s: published bundle differs from the single-cycle derivation", tc.label)
				}
				for i, q := range queries {
					if got.answers[i] != want.answers[i] {
						t.Errorf("%s: %s answered\n%s\nthe single-cycle derivation\n%s", tc.label, q, got.answers[i], want.answers[i])
					}
				}
				// The carried derivation is the stateless one, too: advancing
				// boot over the updater's final stream from nothing.
				fresh, err := boot.Advance(up.stream, up.grid, up.users.Names(), up.items.Names(), index.DefaultAdvanceConfig())
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := fresh.Write(&buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), got.bundle) {
					t.Errorf("%s: boot.Advance over the final stream differs from what the updater serves", tc.label)
				}
				assertGridOfWholeLog(t, tc.label, up, batches)
			}
		})
	}
}

// assertGridOfWholeLog: what the updater holds after consuming the log —
// grown vocabularies, grown grid, and the boot cuboid plus its stream
// cuboid — is what dataset.Interactions.Grid makes of the fixture's boot
// events followed by the same records in one batch, the far-future one
// left out: the stream path and batch gridding are one definition of
// what an event becomes.
func assertGridOfWholeLog(t *testing.T, label string, up *Updater, batches [][]ingest.Record) {
	t.Helper()
	boot := testfixture.Data(6, 12)
	whole := dataset.New()
	for u := 0; u < boot.NumUsers(); u++ { // the boot vocabularies, in the bundle's order
		whole.Users.Intern(fmt.Sprintf("user-%d", u))
	}
	for v := 0; v < boot.NumItems(); v++ {
		whole.Items.Intern(fmt.Sprintf("item-%d", v))
	}
	add := func(user, item string, when int64, score float64) {
		if err := whole.Add(user, item, when, score); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range boot.Cells() {
		add(fmt.Sprintf("user-%d", c.U), fmt.Sprintf("item-%d", c.V), up.boot.Grid.Start(int(c.T)), c.Score)
	}
	for _, batch := range batches {
		for _, r := range batch {
			if r != farFuture {
				add(r.User, r.Item, r.Time, r.Score)
			}
		}
	}
	want, grid, err := whole.Grid(up.boot.Grid.Length)
	if err != nil {
		t.Fatal(err)
	}
	if grid != up.grid {
		t.Errorf("%s: updater grid %+v, the whole log grids to %+v", label, up.grid, grid)
	}
	if !reflect.DeepEqual(up.users.Names(), whole.Users.Names()) || !reflect.DeepEqual(up.items.Names(), whole.Items.Names()) {
		t.Errorf("%s: updater vocabularies differ from the whole log's", label)
	}
	d := cuboid.NewDelta(up.stream.NumUsers(), up.stream.NumIntervals(), up.stream.NumItems())
	for _, c := range up.stream.Cells() {
		d.MustAdd(int(c.U), int(c.T), int(c.V), c.Score)
	}
	got, err := boot.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Cells(), want.Cells()) {
		t.Errorf("%s: boot cuboid + stream cuboid differs from gridding the whole log", label)
	}
}

// TestUpdaterObservesConsumedRecordsOnce: the hot-user sketch counts a
// log record once, however often the cycle consuming it is retried. A
// cycle that fails twice before it publishes — at either fault site —
// must leave the counts a clean run leaves.
func TestUpdaterObservesConsumedRecordsOnce(t *testing.T) {
	defer faultinject.Reset()
	// Enough events per user that counts survive the per-publish halving.
	var first, second []ingest.Record
	for i := 0; i < 7; i++ {
		first = append(first, ingest.Record{User: "user-late", Item: fmt.Sprintf("item-%d", i), Time: 105, Score: 1})
		second = append(second, ingest.Record{User: "user-later", Item: "item-new", Time: 141 + int64(i), Score: 1})
	}
	first = append(first, ingest.Record{User: "user-1", Item: "item-7", Time: 115, Score: 1})
	second = append(second, ingest.Record{User: "user-1", Item: "item-2", Time: 142, Score: 3})
	run := func(site string) *Server {
		dir := t.TempDir()
		boot := testfixture.Bundle(t, 6, 12)
		srv, err := New(boot, WithCache(64), WithHotPrecompute(4))
		if err != nil {
			t.Fatal(err)
		}
		lg, err := ingest.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		up, err := NewUpdater(srv, lg, boot, UpdaterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range [][]ingest.Record{first, second} {
			appendEvents(t, dir, batch...)
			injected := errors.New("injected")
			if site != "" {
				faultinject.SetErr(site, faultinject.ErrorsN(2, injected))
				for i := 0; i < 2; i++ {
					if _, err := up.Step(); !errors.Is(err, injected) {
						t.Fatalf("Step error = %v, want injected", err)
					}
				}
			}
			if published, err := up.Step(); err != nil || !published {
				t.Fatalf("Step = (%v, %v), want (true, nil)", published, err)
			}
		}
		return srv
	}
	clean := run("")
	for _, site := range []string{"updater.fold", "updater.publish"} {
		faulted := run(site)
		for _, user := range []string{"user-late", "user-later", "user-1", "user-0"} {
			h := uint64(sketchIndex(t, clean, user))
			if at := sketchIndex(t, faulted, user); uint64(at) != h {
				t.Fatalf("two failed cycles at %s: %q is user %d, a clean run's %d", site, user, at, h)
			}
			if got, want := faulted.hot.Count(h), clean.hot.Count(h); got != want {
				t.Errorf("two failed cycles at %s: sketch counts %q %d times, a clean run %d", site, user, got, want)
			}
		}
	}
	if clean.hot.Count(uint64(sketchIndex(t, clean, "user-late"))) == 0 {
		t.Error("the event stream never reached the sketch")
	}
}

// sketchIndex is the identity the hot-user sketch counts name under:
// its dense index in the serving generation.
func sketchIndex(t *testing.T, srv *Server, name string) int {
	t.Helper()
	u, err := srv.snapshot().User(name)
	if err != nil {
		t.Fatal(err)
	}
	return u
}
