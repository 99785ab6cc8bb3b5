package tcam

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"tcam/internal/cuboid"
	"tcam/internal/ingest"
	"tcam/internal/model"
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

// foldIters is the number of fold-in rounds the fold-in fixtures were
// recorded with.
const foldIters = 3

// extendUniform replicates FoldInUsersFrom's initialization: the boot model
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
	tr := newTrainer(m, data)
	acc := tr.NewAccum()
	for it := 0; it < iters; it++ {
		acc.Reset()
		tr.EStep(acc, 0, n)
		if updateGlobals {
			tr.MStep(acc)
		} else {
			tr.userStep(0, n)
		}
	}
	return m
}

// TestFoldInBitIdenticalToRestrictedBatch is the fold-in guarantee: for
// every new user u, FoldInUsersFrom reproduces — bit for bit — the θu and
// λu that batch EM restricted to u (globals frozen, a single shard)
// would learn on the same cuboid, at any GOMAXPROCS.
func TestFoldInBitIdenticalToRestrictedBatch(t *testing.T) {
	forFoldVariants(t, func(t *testing.T, v variant) {
		boot := foldBootModel(t, v)
		frozen := cloneModel(boot) // fold-in shares boot's globals; compare against a copy
		grown := foldGrownWorld(t)
		const oldN = 20
		want := batchReference(t, boot, grown, foldIters, false)

		for _, procs := range []int{1, 8} {
			prev := runtime.GOMAXPROCS(procs)
			got, err := boot.FoldInUsersFrom(nil, nil, grown, foldIters)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("FoldInUsersFrom(GOMAXPROCS=%d): %v", procs, err)
			}
			label := fmt.Sprintf("GOMAXPROCS=%d", procs)
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
				!bitsEqual(got.table, frozen.table) || !bitsEqual(got.ctx, frozen.ctx) {
				t.Errorf("%s: fold-in mutated frozen parameters", label)
			}
			assertSameModel(t, label+": receiver", boot, frozen)
		}
	})
}

// TestFoldInFixture pins the end-to-end stream → ingest replay →
// ApplyDelta → FoldInUsersFrom pipeline to the committed gob fixtures, so
// any change to the arithmetic anywhere along that path is caught.
func TestFoldInFixture(t *testing.T) {
	for _, fv := range foldVariants {
		if fv.fixture == "" {
			continue
		}
		t.Run(fv.name, func(t *testing.T) {
			got, err := foldBootModel(t, fv.variant).FoldInUsersFrom(nil, nil, foldGrownWorld(t), foldIters)
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
		folded, err := boot.FoldInUsersFrom(nil, nil, grown, foldIters)
		if err != nil {
			t.Fatal(err)
		}
		full := batchReference(t, boot, grown, foldIters, true)

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
		folded, err := boot.FoldInUsersFrom(nil, nil, grown, 1)
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
		if _, err := boot.FoldInUsersFrom(nil, nil, cuboid.NewBuilder(30, 7, 25).Build(), foldIters); err == nil {
			t.Error("FoldInUsersFrom accepted a cuboid with mismatched intervals")
		}
		if _, err := boot.FoldInUsersFrom(nil, nil, cuboid.NewBuilder(30, 6, 26).Build(), foldIters); err == nil {
			t.Error("FoldInUsersFrom accepted a cuboid with mismatched items")
		}
		if _, err := boot.FoldInUsersFrom(nil, nil, cuboid.NewBuilder(10, 6, 25).Build(), foldIters); err == nil {
			t.Error("FoldInUsersFrom accepted a shrinking user dimension")
		}
		// No new users: identity extension.
		same, err := boot.FoldInUsersFrom(nil, nil, foldBootWorld(t), foldIters)
		if err != nil {
			t.Fatal(err)
		}
		assertSameModel(t, "no-op fold-in", same, boot)
		// Zero iterations is a config error.
		if _, err := boot.FoldInUsersFrom(nil, nil, foldGrownWorld(t), 0); err == nil {
			t.Error("FoldInUsersFrom accepted zero iterations")
		}
	})
}

func TestGrowAddsIntervalAndItems(t *testing.T) {
	forFoldVariants(t, func(t *testing.T, v variant) {
		boot := foldBootModel(t, v)
		frozen := cloneModel(boot)
		// New interval 6 observed old items 3 and 7 and brand-new item 26.
		ctx := boot.FitNewInterval([]int{3, 7, 26}, []float64{2, 1, 5}, 28, 5)
		grownM, err := boot.GrowFrom(nil, 7, 28, [][]float64{ctx})
		if err != nil {
			t.Fatal(err)
		}
		assertSameModel(t, "receiver after GrowFrom", boot, frozen)
		if grownM.NumIntervals() != 7 || grownM.NumItems() != 28 || grownM.NumUsers() != boot.NumUsers() {
			t.Fatalf("grown dims %d users × %d intervals × %d items", grownM.NumUsers(), grownM.NumIntervals(), grownM.NumItems())
		}
		// Old scores are preserved bit-for-bit.
		for u := 0; u < boot.numUsers; u += 7 {
			for tt := 0; tt < 6; tt++ {
				for v := 0; v < 25; v += 5 {
					if math.Float64bits(grownM.Score(u, tt, v)) != math.Float64bits(boot.Score(u, tt, v)) {
						t.Fatalf("Score(%d,%d,%d) changed after GrowFrom", u, tt, v)
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

		if _, err := boot.GrowFrom(nil, 7, 24, [][]float64{ctx}); err == nil {
			t.Error("GrowFrom accepted an item shrink")
		}
		if _, err := boot.GrowFrom(nil, 8, 28, [][]float64{ctx}); err == nil {
			t.Error("GrowFrom accepted an interval count without matching contexts")
		}
		if _, err := boot.GrowFrom(nil, 7, 28, [][]float64{ctx[:2]}); err == nil {
			t.Error("GrowFrom accepted a short context row")
		}
	})
}

// TestFitNewIntervalClosedForm: for the item context the fitted row is
// the smoothed empirical distribution — checked against a hand
// computation.
func TestFitNewIntervalClosedForm(t *testing.T) {
	boot := foldBootModel(t, variants[0])
	ctx := boot.FitNewInterval([]int{-1, 0, 2, 99}, []float64{2, 3, 1, 5}, 25, 0)
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
	want := boot.FitNewInterval([]int{0, 2}, []float64{3, 1}, 25, 0)
	if !bitsEqual(ctx, want) {
		t.Error("out-of-range ratings leaked into the fitted context")
	}
}

// referenceFitNewInterval is the estimator as first written — a map
// lookup and a stride-V read of φ' inside the rounds — kept test-side so
// the gathered-column implementation is pinned to its bits.
func referenceFitNewInterval(m *Model, ratings map[int]float64, numItems, iters int) []float64 {
	if numItems < m.numItems || m.k2 > 0 {
		numItems = m.numItems
	}
	var items []int
	for v, w := range ratings {
		if v >= 0 && v < numItems && w > 0 {
			items = append(items, v)
		}
	}
	sort.Ints(items)
	if m.k2 == 0 {
		row := make([]float64, numItems)
		for _, v := range items {
			row[v] = ratings[v]
		}
		model.NormalizeRows(row, numItems, 1e-6)
		return row
	}
	k2, V := m.k2, m.numItems
	phiX := m.columns(m.k1, k2)
	thetaNew := make([]float64, k2)
	for x := range thetaNew {
		thetaNew[x] = 1 / float64(k2)
	}
	if len(ratings) == 0 {
		return thetaNew
	}
	acc := make([]float64, k2)
	px := make([]float64, k2)
	for it := 0; it < iters; it++ {
		for x := range acc {
			acc[x] = 0
		}
		for _, v := range items {
			var pt float64
			for x := 0; x < k2; x++ {
				p := thetaNew[x] * phiX[x*V+v]
				px[x] = p
				pt += p
			}
			if pt <= 0 {
				continue
			}
			w := ratings[v]
			for x := 0; x < k2; x++ {
				acc[x] += w * px[x] / pt
			}
		}
		copy(thetaNew, acc)
		model.NormalizeRows(thetaNew, k2, 1e-12)
	}
	return thetaNew
}

// TestFitNewIntervalBitIdenticalToReference: gathering the rated
// items' φ' columns once per call changes no bit of the fitted context,
// for either context kind, any round count, and ratings that include
// keys the estimator must drop.
func TestFitNewIntervalBitIdenticalToReference(t *testing.T) {
	forFoldVariants(t, func(t *testing.T, v variant) {
		boot := foldBootModel(t, v)
		rng := rand.New(rand.NewSource(17))
		for trial := 0; trial < 40; trial++ {
			ratings := map[int]float64{}
			for i := rng.Intn(12); i > 0; i-- {
				ratings[rng.Intn(34)-3] = float64(rng.Intn(5)) - 0.5 // keys in [-3,31), some weights ≤ 0
			}
			numItems, iters := 20+rng.Intn(12), rng.Intn(8)
			var items []int
			for v := range ratings {
				items = append(items, v)
			}
			sort.Ints(items)
			weights := make([]float64, len(items))
			for i, v := range items {
				weights[i] = ratings[v]
			}
			got := boot.FitNewInterval(items, weights, numItems, iters)
			if want := referenceFitNewInterval(boot, ratings, numItems, iters); !bitsEqual(got, want) {
				t.Fatalf("trial %d (%d ratings, numItems=%d, iters=%d): fitted context differs from the reference estimator",
					trial, len(ratings), numItems, iters)
			}
		}
	})
}

// TestFoldInUsersFromKeepsVouchedUsers: a kept user's (θu, λu) is
// prev's, every other new user is folded by the same rounds as ever —
// so keeping users whose inputs did not change reproduces the full
// fold-in bit for bit, whichever users are kept.
func TestFoldInUsersFromKeepsVouchedUsers(t *testing.T) {
	forFoldVariants(t, func(t *testing.T, v variant) {
		boot := foldBootModel(t, v)
		grown := foldGrownWorld(t)
		full, err := boot.FoldInUsersFrom(nil, nil, grown, foldIters)
		if err != nil {
			t.Fatal(err)
		}
		for _, kept := range [][]bool{
			nil,
			make([]bool, 30),
			keepUsers(30, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29),
			keepUsers(30, 20, 29),
			keepUsers(27, 22, 23, 26), // shorter than the user range: the rest fold
		} {
			got, err := boot.FoldInUsersFrom(full, kept, grown, foldIters)
			if err != nil {
				t.Fatal(err)
			}
			assertSameModel(t, fmt.Sprintf("kept=%v", kept), got, full)
		}
		// The kept rows are copies of prev's, not a second fold.
		marked := cloneModel(full)
		marked.lambda[24] = 0.123
		got, err := boot.FoldInUsersFrom(marked, keepUsers(30, 24), grown, foldIters)
		if err != nil {
			t.Fatal(err)
		}
		if got.lambda[24] != 0.123 || got.lambda[25] != full.lambda[25] {
			t.Error("kept user did not take prev's λ, or a folded one did")
		}
		// A user prev never had cannot be kept.
		if _, err := boot.FoldInUsersFrom(boot, keepUsers(30, 24), grown, foldIters); err == nil {
			t.Error("kept a user the previous model does not have")
		}
		if _, err := boot.FoldInUsersFrom(nil, keepUsers(30, 24), grown, foldIters); err == nil {
			t.Error("kept a user with no previous model")
		}
	})
}

func keepUsers(n int, users ...int) []bool {
	kept := make([]bool, n)
	for _, u := range users {
		kept[u] = true
	}
	return kept
}

// TestGrowSharesUnchangedSlabs: growth copies a table only when its
// shape changes. An ITCAM table, whose columns include the contexts,
// changes shape with every interval; with none opened it follows the
// stride rule as a TTCAM table does, and a growth that fits prev's
// stride shares prev's table.
func TestGrowSharesUnchangedSlabs(t *testing.T) {
	forFoldVariants(t, func(t *testing.T, v variant) {
		boot := foldBootModel(t, v)
		same, err := boot.GrowFrom(nil, 6, 25, nil)
		if err != nil {
			t.Fatal(err)
		}
		if &same.table[0] != &boot.table[0] || !sameStorage(same.ctx, boot.ctx) {
			t.Error("GrowFrom to the same shape copied the table or θ'")
		}
		ctx := boot.FitNewInterval([]int{3}, []float64{2}, 25, 5)
		taller, err := boot.GrowFrom(nil, 7, 25, [][]float64{ctx})
		if err != nil {
			t.Fatal(err)
		}
		if shared := &taller.table[0] == &boot.table[0]; shared != v.topics {
			t.Errorf("GrowFrom by an interval shares the table: %t, want %t", shared, v.topics)
		}
		if v.topics && sameStorage(taller.ctx, boot.ctx) {
			t.Error("GrowFrom by an interval wrote the new context into the receiver's θ'")
		}
		assertTableIsParams(t, "taller", taller)
		wider, err := boot.GrowFrom(nil, 6, 26, nil)
		if err != nil {
			t.Fatal(err)
		}
		if &wider.table[0] == &boot.table[0] {
			t.Error("GrowFrom by an item shares a table without room for it")
		}
		assertTableIsParams(t, "wider", wider)
		wider2, err := boot.GrowFrom(wider, 6, 27, nil)
		if err != nil {
			t.Fatal(err)
		}
		if &wider2.table[0] != &wider.table[0] {
			t.Error("GrowFrom within prev's stride copied prev's table")
		}
		assertTableIsParams(t, "wider within the stride", wider2)
	})
}

// sameStorage reports whether a and b are the same slab: both empty, or
// both starting at one address.
func sameStorage(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return len(a) == len(b)
	}
	return &a[0] == &b[0]
}

// assertTableIsParams checks a model's table against the table Read
// lays out from its own wire form, and its room behind the catalog for
// zeros: growth must lay out what a decode would.
func assertTableIsParams(t *testing.T, label string, m *Model) {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	laid, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n := len(laid.table)
	if !bitsEqual(m.table[:n], laid.table) || !allZero(m.table[n:]) {
		t.Errorf("%s: the table is not its parameters laid out", label)
	}
}

func allZero(s []float64) bool {
	for _, x := range s {
		if math.Float64bits(x) != 0 {
			return false
		}
	}
	return true
}

// TestFoldInAllocatesNoGlobalSlab pins what fold-in allocates: every
// global is frozen, so no accumulator — the total's or any worker's, at
// any GOMAXPROCS — may carry a φ-, θ'- or φ'-sized statistics slab, and
// nothing is laid out for the E-step to read: it reads the model's
// item-major table. What a fold costs is user-sized rows.
func TestFoldInAllocatesNoGlobalSlab(t *testing.T) {
	const users, newUsers, intervals, items = 16, 16, 4, 4000
	b := cuboid.NewBuilder(users, intervals, items)
	d := cuboid.NewDelta(users+newUsers, intervals, items)
	for u := 0; u < users+newUsers; u++ {
		for i := 0; i < 12; i++ {
			tt, v := (u+i)%intervals, (u*131+i*977)%items
			if u < users {
				b.MustAdd(u, tt, v, 1)
			} else {
				d.MustAdd(u, tt, v, 1)
			}
		}
	}
	bootData := b.Build()
	grown, err := bootData.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	forFoldVariants(t, func(t *testing.T, v variant) {
		cfg := v.config(6, 4)
		cfg.MaxIters = 2
		boot, _, err := Train(bootData, cfg)
		if err != nil {
			t.Fatal(err)
		}
		bytesPerFold := func(procs int) uint64 {
			const runs = 4
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if _, err := boot.FoldInUsersFrom(nil, nil, grown, 2); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			return (after.TotalAlloc - before.TotalAlloc) / runs
		}
		slab := uint64(8 * boot.numItems * boot.k1) // the smallest global slab an accumulator could carry
		for _, procs := range []int{1, 8} {
			if got := bytesPerFold(procs); got > slab/2 {
				t.Errorf("GOMAXPROCS=%d: FoldInUsersFrom allocates %d B per call, want under half a %d B φ slab",
					procs, got, slab)
			}
		}
	})
}
