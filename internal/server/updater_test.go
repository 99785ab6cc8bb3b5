package server

// Tests for the streaming ingest updater (DESIGN.md §15): snapshot
// generations published as the log grows, /healthz ingest reporting,
// fault-injected cycle failures, and kill-and-resume republishing a
// bit-identical bundle.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	"tcam/internal/api"
	"tcam/internal/faultinject"
	"tcam/internal/index"
	"tcam/internal/ingest"
)

// updaterFixture is one server + updater pair over a shared log dir.
func updaterFixture(tb testing.TB, dir string) (*Server, *Updater) {
	tb.Helper()
	boot := makeBundle(tb, 6, 12)
	srv, err := New(boot)
	if err != nil {
		tb.Fatal(err)
	}
	lg, err := ingest.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := UpdaterConfig{Advance: index.DefaultAdvanceConfig()}
	cfg.Advance.FoldIters = 3
	up, err := NewUpdater(srv, lg, boot, cfg)
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

	appendEvents(t, dir,
		ingest.Record{User: "user-late", Item: "item-3", Time: 105, Score: 2},
		ingest.Record{User: "user-later", Item: "item-new", Time: 141, Score: 1},
	)
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
	if published, err := upB.Step(); err != nil || !published {
		t.Fatalf("resume Step = (%v, %v), want (true, nil)", published, err)
	}

	// The survivor retries and publishes; both processes must now serve
	// byte-identical bundles covering every appended event.
	if published, err := upA.Step(); err != nil || !published {
		t.Fatalf("survivor Step = (%v, %v), want (true, nil)", published, err)
	}
	if upA.Offset() != 3 || upB.Offset() != 3 {
		t.Fatalf("offsets after resume: survivor %d, restarted %d, want 3", upA.Offset(), upB.Offset())
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

// TestUpdaterValidation: NewUpdater rejects a bundle that fails
// validation rather than tailing a log it can never advance from.
func TestUpdaterValidation(t *testing.T) {
	boot := makeBundle(t, 4, 8)
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
	if up.cfg.Interval != DefaultUpdaterInterval || up.cfg.Advance.FoldIters == 0 {
		t.Fatalf("zero config not defaulted: %+v", up.cfg)
	}
}
