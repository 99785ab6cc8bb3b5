package tcam

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"testing"

	"tcam/internal/cuboid"
	"tcam/internal/ingest"
)

// foldVariants is the fold-in table: the committed fold-in fixtures
// were generated from ITCAM and from TTCAM with a 0.1 background (so
// the fourth mixture path is exercised too).
var foldVariants = []struct {
	variant
	fixture string // under testdata/; empty when none is committed
}{
	{variant{"ITCAM", false, 0}, "itcam_foldin_model.gob"},
	{variant{"TTCAM", true, 0}, ""},
	{variant{"TTCAM+background", true, 0.1}, "ttcam_foldin_model.gob"},
}

func forFoldVariants(t *testing.T, f func(t *testing.T, v variant)) {
	t.Helper()
	for _, fv := range foldVariants {
		t.Run(fv.name, func(t *testing.T) { f(t, fv.variant) })
	}
}

// foldBootWorld is the frozen pre-stream dataset behind the fold-in
// fixtures: the first 20 users of the engine world.
func foldBootWorld(tb testing.TB) *cuboid.Cuboid {
	tb.Helper()
	b := cuboid.NewBuilder(20, 6, 25)
	for u := 0; u < 20; u++ {
		for t := 0; t < 6; t++ {
			b.MustAdd(u, t, (u*3+t*7)%25, 1+float64((u+t)%4))
			b.MustAdd(u, t, (u+t*t)%25, 1)
			if (u+t)%3 == 0 {
				b.MustAdd(u, t, (u*5+t)%25, 2)
			}
		}
	}
	return b.Build()
}

// foldStream is the deterministic event stream that introduces users
// 20..29. IDs encode their dense indices ("u23", "v07"); Time is the
// interval directly.
func foldStream(tb testing.TB) []ingest.Record {
	tb.Helper()
	var recs []ingest.Record
	for u := 20; u < 30; u++ {
		for t := 0; t < 6; t++ {
			recs = append(recs, ingest.Record{
				User: fmt.Sprintf("u%02d", u), Item: fmt.Sprintf("v%02d", (u*3+t*7)%25),
				Time: int64(t), Score: 1 + float64((u+t)%4),
			})
			recs = append(recs, ingest.Record{
				User: fmt.Sprintf("u%02d", u), Item: fmt.Sprintf("v%02d", (u+t*t)%25),
				Time: int64(t), Score: 1,
			})
		}
	}
	return recs
}

// foldGrownWorld replays the stream through a real ingest log and
// extends the boot cuboid with ApplyDelta — the exact pipeline the
// server's updater runs — yielding the 30-user fold-in cuboid.
func foldGrownWorld(tb testing.TB) *cuboid.Cuboid {
	tb.Helper()
	log, err := ingest.Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	recs := foldStream(tb)
	// Append in two batches to prove batching does not matter.
	if _, err := log.Append(recs[:len(recs)/2]...); err != nil {
		tb.Fatal(err)
	}
	if _, err := log.Append(recs[len(recs)/2:]...); err != nil {
		tb.Fatal(err)
	}
	boot := foldBootWorld(tb)
	d := cuboid.NewDelta(30, 6, 25)
	if err := log.Replay(0, func(_ int64, r ingest.Record) error {
		u, err := strconv.Atoi(r.User[1:])
		if err != nil {
			return err
		}
		v, err := strconv.Atoi(r.Item[1:])
		if err != nil {
			return err
		}
		return d.Add(u, int(r.Time), v, r.Score)
	}); err != nil {
		tb.Fatal(err)
	}
	grown, err := boot.ApplyDelta(d)
	if err != nil {
		tb.Fatal(err)
	}
	return grown
}

func foldBootModel(tb testing.TB, v variant) *Model {
	tb.Helper()
	m, _, err := Train(foldBootWorld(tb), engineConfig(v))
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func foldConfig() FoldInConfig {
	return FoldInConfig{Iters: 3, Smoothing: 1e-9, Shards: 2}
}

// extendUniform replicates FoldInUsers' initialization: the boot model
// widened to n users with uniform interests and λ=1/2. Test-side copy
// so the comparator cannot share code with the path under test.
func extendUniform(m *Model, n int) *Model {
	out := cloneModel(m)
	oldN := m.numUsers
	out.numUsers = n
	theta := make([]float64, n*m.k1)
	copy(theta, m.theta)
	for i := oldN * m.k1; i < len(theta); i++ {
		theta[i] = 1 / float64(m.k1)
	}
	out.theta = theta
	lambda := make([]float64, n)
	copy(lambda, m.lambda)
	for u := oldN; u < n; u++ {
		lambda[u] = 0.5
	}
	out.lambda = lambda
	return out
}

// batchReference runs iters rounds of single-shard batch EM over ALL
// users of data, starting from boot extended with uniform new rows.
// With updateGlobals=false the globals stay frozen (partial EM — the
// regime where fold-in must match bit-for-bit); with true the full
// M-step runs (real batch EM — the regime where fold-in legitimately
// drifts after the first round).
func batchReference(tb testing.TB, boot *Model, data *cuboid.Cuboid, iters int, updateGlobals bool) *Model {
	tb.Helper()
	n := data.NumUsers()
	m := extendUniform(boot, n)
	tr := newTrainer(m, data, 1e-9)
	acc := tr.NewAccum(0, 0, n)
	for it := 0; it < iters; it++ {
		acc.Reset()
		tr.EStep(acc)
		if updateGlobals {
			tr.MStep(acc)
		} else {
			tr.FoldStep(acc, 0, n)
		}
	}
	return m
}

// TestFoldInBitIdenticalToRestrictedBatch is the fold-in guarantee: for
// every new user u, FoldInUsers reproduces — bit for bit — the θu and
// λu that batch EM restricted to u (globals frozen, any shard/worker
// split) would learn on the same cuboid.
func TestFoldInBitIdenticalToRestrictedBatch(t *testing.T) {
	forFoldVariants(t, func(t *testing.T, v variant) {
		boot := foldBootModel(t, v)
		frozen := cloneModel(boot) // fold-in shares boot's globals; compare against a copy
		grown := foldGrownWorld(t)
		const oldN = 20
		cfg := foldConfig()
		want := batchReference(t, boot, grown, cfg.Iters, false)

		for _, shards := range []int{1, 2, 4} {
			for _, workers := range []int{1, 8} {
				cfg := cfg
				cfg.Shards, cfg.Workers = shards, workers
				got, err := boot.FoldInUsers(grown, cfg)
				if err != nil {
					t.Fatalf("FoldInUsers(shards=%d, workers=%d): %v", shards, workers, err)
				}
				label := fmt.Sprintf("shards=%d workers=%d", shards, workers)
				if !bitsEqual(got.theta[oldN*got.k1:], want.theta[oldN*want.k1:]) {
					t.Errorf("%s: folded theta rows differ from restricted batch EM", label)
				}
				if !bitsEqual(got.lambda[oldN:], want.lambda[oldN:]) {
					t.Errorf("%s: folded lambda differs from restricted batch EM", label)
				}
				// Old users and every global parameter are untouched, in
				// the result and in the receiver.
				if !bitsEqual(got.theta[:oldN*got.k1], frozen.theta) ||
					!bitsEqual(got.lambda[:oldN], frozen.lambda) ||
					!bitsEqual(got.phi, frozen.phi) || !bitsEqual(got.ctx, frozen.ctx) ||
					!bitsEqual(got.phiX, frozen.phiX) || !bitsEqual(got.background, frozen.background) {
					t.Errorf("%s: fold-in mutated frozen parameters", label)
				}
				assertSameModel(t, label+": receiver", boot, frozen)
			}
		}
	})
}

// TestFoldInFixture pins the end-to-end stream → ingest replay →
// ApplyDelta → FoldInUsers pipeline to the committed gob fixtures, so
// any change to the arithmetic anywhere along that path is caught.
func TestFoldInFixture(t *testing.T) {
	for _, fv := range foldVariants {
		if fv.fixture == "" {
			continue
		}
		t.Run(fv.name, func(t *testing.T) {
			got, err := foldBootModel(t, fv.variant).FoldInUsers(foldGrownWorld(t), foldConfig())
			if err != nil {
				t.Fatal(err)
			}
			assertSameModel(t, "fold-in fixture", got, loadModel(t, "testdata/"+fv.fixture))
		})
	}
}

// TestFoldInDriftFromFullBatch documents where fold-in legitimately
// diverges: once real batch EM updates the global topics (round two
// onward), the folded interests — computed against frozen topics —
// drift. The drift must be nonzero (the regimes really differ) yet
// bounded (fold-in is a sane approximation of a retrain).
func TestFoldInDriftFromFullBatch(t *testing.T) {
	forFoldVariants(t, func(t *testing.T, v variant) {
		boot := foldBootModel(t, v)
		grown := foldGrownWorld(t)
		const oldN = 20
		cfg := foldConfig()
		folded, err := boot.FoldInUsers(grown, cfg)
		if err != nil {
			t.Fatal(err)
		}
		full := batchReference(t, boot, grown, cfg.Iters, true)

		var totalL1 float64
		for i := oldN * folded.k1; i < len(folded.theta); i++ {
			totalL1 += math.Abs(folded.theta[i] - full.theta[i])
		}
		mean := totalL1 / float64(folded.numUsers-oldN)
		if mean == 0 {
			t.Error("fold-in and full batch EM agree exactly after multiple rounds; the drift metric is vacuous")
		}
		if mean > 0.5 {
			t.Errorf("mean per-user theta L1 drift %v exceeds 0.5; fold-in has diverged from batch EM", mean)
		}
		t.Logf("mean per-user theta L1 drift vs full batch EM: %.6f", mean)
	})
}

// TestFoldInSingleRoundMatchesFullBatch is the sharper version of the
// drift boundary: after exactly one round, even FULL batch EM agrees
// with fold-in on the new users' interests bit-for-bit, because the
// first round's E-step reads only boot-frozen globals either way.
func TestFoldInSingleRoundMatchesFullBatch(t *testing.T) {
	forFoldVariants(t, func(t *testing.T, v variant) {
		boot := foldBootModel(t, v)
		grown := foldGrownWorld(t)
		const oldN = 20
		cfg := foldConfig()
		cfg.Iters = 1
		folded, err := boot.FoldInUsers(grown, cfg)
		if err != nil {
			t.Fatal(err)
		}
		full := batchReference(t, boot, grown, 1, true)
		if !bitsEqual(folded.theta[oldN*folded.k1:], full.theta[oldN*full.k1:]) {
			t.Error("one-round fold-in differs from one-round full batch EM on new users' theta")
		}
		if !bitsEqual(folded.lambda[oldN:], full.lambda[oldN:]) {
			t.Error("one-round fold-in differs from one-round full batch EM on new users' lambda")
		}
	})
}

func TestFoldInValidation(t *testing.T) {
	forFoldVariants(t, func(t *testing.T, v variant) {
		boot := foldBootModel(t, v)
		cfg := foldConfig()
		if _, err := boot.FoldInUsers(cuboid.NewBuilder(30, 7, 25).Build(), cfg); err == nil {
			t.Error("FoldInUsers accepted a cuboid with mismatched intervals")
		}
		if _, err := boot.FoldInUsers(cuboid.NewBuilder(30, 6, 26).Build(), cfg); err == nil {
			t.Error("FoldInUsers accepted a cuboid with mismatched items")
		}
		if _, err := boot.FoldInUsers(cuboid.NewBuilder(10, 6, 25).Build(), cfg); err == nil {
			t.Error("FoldInUsers accepted a shrinking user dimension")
		}
		// No new users: identity extension.
		same, err := boot.FoldInUsers(foldBootWorld(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertSameModel(t, "no-op fold-in", same, boot)
		// Zero iterations is a config error.
		cfg.Iters = 0
		if _, err := boot.FoldInUsers(foldGrownWorld(t), cfg); err == nil {
			t.Error("FoldInUsers accepted Iters=0")
		}
	})
}

func TestGrowAddsIntervalAndItems(t *testing.T) {
	forFoldVariants(t, func(t *testing.T, v variant) {
		boot := foldBootModel(t, v)
		frozen := cloneModel(boot)
		// New interval 6 observed old items 3 and 7 and brand-new item 26.
		ctx := boot.FitNewInterval(map[int]float64{3: 2, 26: 5, 7: 1}, 28, 5)
		grownM, err := boot.Grow(7, 28, [][]float64{ctx})
		if err != nil {
			t.Fatal(err)
		}
		assertSameModel(t, "receiver after Grow", boot, frozen)
		if grownM.NumIntervals() != 7 || grownM.NumItems() != 28 || grownM.NumUsers() != boot.NumUsers() {
			t.Fatalf("grown dims %d users × %d intervals × %d items", grownM.NumUsers(), grownM.NumIntervals(), grownM.NumItems())
		}
		// Old scores are preserved bit-for-bit.
		for u := 0; u < boot.numUsers; u += 7 {
			for tt := 0; tt < 6; tt++ {
				for v := 0; v < 25; v += 5 {
					if math.Float64bits(grownM.Score(u, tt, v)) != math.Float64bits(boot.Score(u, tt, v)) {
						t.Fatalf("Score(%d,%d,%d) changed after Grow", u, tt, v)
					}
				}
			}
		}
		// The new interval scores old items through its fitted context.
		if grownM.Score(0, 6, 3) <= 0 {
			t.Error("new interval gives no mass to an item its context observed")
		}
		if v.topics {
			// The topic mixture's structural limitation: a brand-new item
			// has zero mass under the frozen time topics, in every
			// interval, until a full retrain.
			for tt := 0; tt < 7; tt++ {
				if got := grownM.Score(0, tt, 26); got != 0 {
					t.Errorf("new item scored %v in interval %d under frozen time topics", got, tt)
				}
			}
		} else {
			// The item context reaches the brand-new item, but only
			// through the interval that observed it.
			if grownM.Score(0, 6, 26) <= 0 {
				t.Error("new item has no mass in the interval that observed it")
			}
			if lam := grownM.Lambda(0); grownM.Score(0, 0, 26) > (1-lam)*1e-5 {
				t.Error("new item has unexpected mass in an old interval")
			}
		}
		// The grown model round-trips the wire format (length invariants hold).
		var buf bytes.Buffer
		if err := grownM.Write(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		assertSameModel(t, "grown round-trip", back, grownM)

		if _, err := boot.Grow(7, 24, [][]float64{ctx}); err == nil {
			t.Error("Grow accepted an item shrink")
		}
		if _, err := boot.Grow(8, 28, [][]float64{ctx}); err == nil {
			t.Error("Grow accepted an interval count without matching contexts")
		}
		if _, err := boot.Grow(7, 28, [][]float64{ctx[:2]}); err == nil {
			t.Error("Grow accepted a short context row")
		}
	})
}

// TestFitNewIntervalClosedForm: for the item context the fitted row is
// the smoothed empirical distribution — checked against a hand
// computation.
func TestFitNewIntervalClosedForm(t *testing.T) {
	boot := foldBootModel(t, variants[0])
	ctx := boot.FitNewInterval(map[int]float64{0: 3, 2: 1, 99: 5, -1: 2}, 25, 0)
	if len(ctx) != 25 {
		t.Fatalf("context length %d, want 25", len(ctx))
	}
	var sum float64
	for _, p := range ctx {
		if p <= 0 {
			t.Fatal("fitted context has a non-positive entry (smoothing lost)")
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("fitted context sums to %v", sum)
	}
	if ctx[0] <= ctx[2] {
		t.Error("item with triple the mass is not ranked above")
	}
	// Out-of-range keys (99 under numItems=25, -1) are dropped: the
	// result must equal the in-range-only fit.
	want := boot.FitNewInterval(map[int]float64{0: 3, 2: 1}, 25, 0)
	if !bitsEqual(ctx, want) {
		t.Error("out-of-range ratings leaked into the fitted context")
	}
}
