package cuboid

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// buildRandom constructs a deterministic random cuboid for delta tests.
func buildRandom(t *testing.T, seed int64, nu, nt, nv, n int) *Cuboid {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	b := NewBuilder(nu, nt, nv)
	for i := 0; i < n; i++ {
		b.MustAdd(r.Intn(nu), r.Intn(nt), r.Intn(nv), float64(1+r.Intn(3)))
	}
	return b.Build()
}

// assertSameCuboid checks full equality: dimensions, cells, both CSR
// views and the CSR↔Cells alignment invariant.
func assertSameCuboid(t *testing.T, got, want *Cuboid) {
	t.Helper()
	if got.NumUsers() != want.NumUsers() || got.NumIntervals() != want.NumIntervals() || got.NumItems() != want.NumItems() {
		t.Fatalf("dims %d×%d×%d, want %d×%d×%d", got.NumUsers(), got.NumIntervals(), got.NumItems(),
			want.NumUsers(), want.NumIntervals(), want.NumItems())
	}
	gc, wc := got.Cells(), want.Cells()
	if len(gc) != len(wc) {
		t.Fatalf("nnz %d, want %d", len(gc), len(wc))
	}
	for i := range wc {
		if gc[i].U != wc[i].U || gc[i].T != wc[i].T || gc[i].V != wc[i].V ||
			math.Float64bits(gc[i].Score) != math.Float64bits(wc[i].Score) {
			t.Fatalf("cell %d = %+v, want %+v", i, gc[i], wc[i])
		}
	}
	gts, gvs, gsc := got.CSR()
	wts, wvs, wsc := want.CSR()
	for i := range wts {
		if gts[i] != wts[i] || gvs[i] != wvs[i] || math.Float64bits(gsc[i]) != math.Float64bits(wsc[i]) {
			t.Fatalf("by-user CSR row %d differs", i)
		}
	}
	for u := 0; u < want.NumUsers(); u++ {
		glo, ghi := got.UserSpan(u)
		wlo, whi := want.UserSpan(u)
		if glo != wlo || ghi != whi {
			t.Fatalf("UserSpan(%d) = [%d,%d), want [%d,%d)", u, glo, ghi, wlo, whi)
		}
	}
	gus, gtvs, gtsc := got.IntervalCSR()
	wus, wtvs, wtsc := want.IntervalCSR()
	for i := range wus {
		if gus[i] != wus[i] || gtvs[i] != wtvs[i] || math.Float64bits(gtsc[i]) != math.Float64bits(wtsc[i]) {
			t.Fatalf("by-interval CSR row %d differs", i)
		}
	}
	for tt := 0; tt < want.NumIntervals(); tt++ {
		glo, ghi := got.IntervalSpan(tt)
		wlo, whi := want.IntervalSpan(tt)
		if glo != wlo || ghi != whi {
			t.Fatalf("IntervalSpan(%d) = [%d,%d), want [%d,%d)", tt, glo, ghi, wlo, whi)
		}
	}
}

// ApplyDelta must agree exactly with rebuilding from scratch over the
// union of ratings — same cells, same CSR views, same score bits (all
// scores here are small integers, so addition grouping is exact).
func TestApplyDeltaMatchesRebuild(t *testing.T) {
	const nu, nt, nv = 30, 6, 40
	r := rand.New(rand.NewSource(11))
	type rating struct{ u, t, v, s int }
	var base, extra []rating
	for i := 0; i < 500; i++ {
		base = append(base, rating{r.Intn(nu), r.Intn(nt), r.Intn(nv), 1 + r.Intn(3)})
	}
	// The delta widens every dimension and overlaps existing keys.
	const nu2, nt2, nv2 = 37, 8, 51
	for i := 0; i < 300; i++ {
		extra = append(extra, rating{r.Intn(nu2), r.Intn(nt2), r.Intn(nv2), 1 + r.Intn(3)})
	}

	b := NewBuilder(nu, nt, nv)
	for _, x := range base {
		b.MustAdd(x.u, x.t, x.v, float64(x.s))
	}
	c := b.Build()
	d := NewDelta(nu2, nt2, nv2)
	for _, x := range extra {
		d.MustAdd(x.u, x.t, x.v, float64(x.s))
	}
	got, err := c.ApplyDelta(d)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}

	full := NewBuilder(nu2, nt2, nv2)
	for _, x := range base {
		full.MustAdd(x.u, x.t, x.v, float64(x.s))
	}
	for _, x := range extra {
		full.MustAdd(x.u, x.t, x.v, float64(x.s))
	}
	assertSameCuboid(t, got, full.Build())

	// The base is untouched.
	if c.NumUsers() != nu || c.NNZ() > len(base) {
		t.Fatalf("base cuboid mutated: %d×%d×%d nnz=%d", c.NumUsers(), c.NumIntervals(), c.NumItems(), c.NNZ())
	}
}

// Chained deltas must be batching-invariant for integer scores: two
// small deltas and one combined delta yield bit-identical cuboids.
func TestApplyDeltaBatchingInvariant(t *testing.T) {
	const nu, nt, nv = 20, 5, 25
	c := buildRandom(t, 7, nu, nt, nv, 200)
	r := rand.New(rand.NewSource(8))
	type rating struct{ u, t, v, s int }
	var stream []rating
	for i := 0; i < 240; i++ {
		stream = append(stream, rating{r.Intn(nu), r.Intn(nt), r.Intn(nv), 1 + r.Intn(2)})
	}
	addAll := func(d *Delta, rs []rating) {
		for _, x := range rs {
			d.MustAdd(x.u, x.t, x.v, float64(x.s))
		}
	}
	d1 := NewDelta(nu, nt, nv)
	addAll(d1, stream[:100])
	d2 := NewDelta(nu, nt, nv)
	addAll(d2, stream[100:])
	step1, err := c.ApplyDelta(d1)
	if err != nil {
		t.Fatal(err)
	}
	twoStep, err := step1.ApplyDelta(d2)
	if err != nil {
		t.Fatal(err)
	}
	dAll := NewDelta(nu, nt, nv)
	addAll(dAll, stream)
	oneStep, err := c.ApplyDelta(dAll)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCuboid(t, twoStep, oneStep)
}

// Builder.Build is the Delta machinery applied to no cells: the same
// cells through an empty cuboid in any number of deltas — empty and
// one-cell deltas included — give the same cuboid, bit for bit. The
// scores are ones no float sum represents exactly, so this holds only
// because a cell rated more than once carries the left-to-right sum of
// its ratings in arrival order wherever the stream was cut.
func TestBuildIsDeltaOnEmpty(t *testing.T) {
	const nu, nt, nv = 9, 4, 7 // 252 keys for 600 ratings: most cells are rated repeatedly
	r := rand.New(rand.NewSource(19))
	type rating struct {
		u, t, v int
		s       float64
	}
	type key struct{ u, t, v int }
	ratings := make([]rating, 600)
	want := map[key]float64{}
	b := NewBuilder(nu, nt, nv)
	for i := range ratings {
		x := rating{r.Intn(nu), r.Intn(nt), r.Intn(nv), 0.1 + r.Float64()}
		ratings[i] = x
		want[key{x.u, x.t, x.v}] += x.s
		b.MustAdd(x.u, x.t, x.v, x.s)
	}
	built := b.Build()
	if built.NNZ() != len(want) {
		t.Fatalf("Build kept %d cells of %d distinct keys", built.NNZ(), len(want))
	}
	for _, cell := range built.Cells() {
		if w := want[key{int(cell.U), int(cell.T), int(cell.V)}]; math.Float64bits(cell.Score) != math.Float64bits(w) {
			t.Fatalf("cell (%d,%d,%d) sums to %v, its ratings in arrival order to %v", cell.U, cell.T, cell.V, cell.Score, w)
		}
	}
	chunked := func(cuts []int) *Cuboid {
		c := new(Cuboid)
		for i, lo := 0, 0; i <= len(cuts); i++ {
			hi := len(ratings)
			if i < len(cuts) {
				hi = cuts[i]
			}
			d := NewDelta(nu, nt, nv)
			for _, x := range ratings[lo:hi] {
				d.MustAdd(x.u, x.t, x.v, x.s)
			}
			var err error
			if c, err = c.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		return c
	}
	for _, cuts := range [][]int{nil, {0}, {600}, {1, 2, 2, 599}, {100, 350}, {7, 8, 64, 65, 300, 301, 302}} {
		assertSameCuboid(t, chunked(cuts), built)
	}
	for trial := 0; trial < 20; trial++ {
		cuts := make([]int, r.Intn(12))
		for i := range cuts {
			cuts[i] = r.Intn(len(ratings) + 1)
		}
		sort.Ints(cuts)
		assertSameCuboid(t, chunked(cuts), built)
	}
}

func TestApplyDeltaRejectsShrink(t *testing.T) {
	c := buildRandom(t, 3, 10, 4, 12, 50)
	if _, err := c.ApplyDelta(NewDelta(9, 4, 12)); err == nil {
		t.Error("ApplyDelta accepted a user-dimension shrink")
	}
	if _, err := c.ApplyDelta(NewDelta(10, 3, 12)); err == nil {
		t.Error("ApplyDelta accepted an interval-dimension shrink")
	}
	if _, err := c.ApplyDelta(NewDelta(10, 4, 11)); err == nil {
		t.Error("ApplyDelta accepted an item-dimension shrink")
	}
}

func TestDeltaFrozenAfterApply(t *testing.T) {
	c := buildRandom(t, 3, 10, 4, 12, 50)
	d := NewDelta(10, 4, 12)
	d.MustAdd(1, 1, 1, 1)
	if _, err := c.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(2, 2, 2, 1); err == nil {
		t.Error("Add succeeded on an applied delta")
	}
}

// --- pathological deltas (satellite: Subset/CSR coverage) ---

// An empty delta that widens dimensions: all views must stay coherent,
// with the new users/intervals present but empty.
func TestApplyDeltaEmpty(t *testing.T) {
	c := buildRandom(t, 5, 12, 4, 15, 80)
	d := NewDelta(20, 7, 22)
	got, err := c.ApplyDelta(d)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if got.NNZ() != c.NNZ() {
		t.Fatalf("empty delta changed nnz: %d -> %d", c.NNZ(), got.NNZ())
	}
	for u := 12; u < 20; u++ {
		if lo, hi := got.UserSpan(u); lo != hi {
			t.Fatalf("new user %d has nonempty span [%d,%d)", u, lo, hi)
		}
	}
	for tt := 4; tt < 7; tt++ {
		if lo, hi := got.IntervalSpan(tt); lo != hi {
			t.Fatalf("new interval %d has nonempty span [%d,%d)", tt, lo, hi)
		}
	}
	// Subset over the widened cuboid still round-trips every cell.
	all := got.Subset(func(int, Cell) bool { return true })
	assertSameCuboid(t, all, got)
	none := got.Subset(func(int, Cell) bool { return false })
	if none.NNZ() != 0 || none.NumUsers() != 20 || none.NumIntervals() != 7 {
		t.Fatalf("empty subset wrong: nnz=%d dims %d×%d×%d", none.NNZ(),
			none.NumUsers(), none.NumIntervals(), none.NumItems())
	}
}

// A delta that only opens a new interval: the by-interval view gains
// exactly one row, the by-user view interleaves correctly.
func TestApplyDeltaNewIntervalOnly(t *testing.T) {
	const nu, nt, nv = 10, 4, 12
	c := buildRandom(t, 6, nu, nt, nv, 60)
	d := NewDelta(nu, nt+1, nv)
	// Every user rates one item in the new interval.
	for u := 0; u < nu; u++ {
		d.MustAdd(u, nt, u%nv, 2)
	}
	got, err := c.ApplyDelta(d)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if got.NNZ() != c.NNZ()+nu {
		t.Fatalf("nnz = %d, want %d", got.NNZ(), c.NNZ()+nu)
	}
	lo, hi := got.IntervalSpan(nt)
	if hi-lo != nu {
		t.Fatalf("new interval span has %d cells, want %d", hi-lo, nu)
	}
	us, vs, scores := got.IntervalCSR()
	for i := lo; i < hi; i++ {
		u := int(us[i])
		if int(vs[i]) != u%nv || scores[i] != 2 {
			t.Fatalf("new-interval cell %d = (u=%d v=%d s=%v)", i, u, vs[i], scores[i])
		}
	}
	// Old intervals are untouched.
	for tt := 0; tt < nt; tt++ {
		glo, ghi := got.IntervalSpan(tt)
		wlo, whi := c.IntervalSpan(tt)
		if ghi-glo != whi-wlo {
			t.Fatalf("old interval %d count changed: %d -> %d", tt, whi-wlo, ghi-glo)
		}
	}
	// Subset to only the new interval matches a direct build.
	onlyNew := got.Subset(func(_ int, cell Cell) bool { return cell.T == nt })
	if onlyNew.NNZ() != nu {
		t.Fatalf("subset of new interval has %d cells, want %d", onlyNew.NNZ(), nu)
	}
	// Each user's span grew by exactly one and stays (T,V)-sorted.
	for u := 0; u < nu; u++ {
		glo, ghi := got.UserSpan(u)
		wlo, whi := c.UserSpan(u)
		if ghi-glo != whi-wlo+1 {
			t.Fatalf("user %d span grew by %d, want 1", u, (ghi-glo)-(whi-wlo))
		}
		ts, _, _ := got.CSR()
		for i := glo + 1; i < ghi; i++ {
			if ts[i] < ts[i-1] {
				t.Fatalf("user %d CSR rows unsorted at %d", u, i)
			}
		}
	}
}

// A delta touching every user (including brand-new ones) — the
// worst-case full-width merge.
func TestApplyDeltaTouchesEveryUser(t *testing.T) {
	const nu, nt, nv = 10, 4, 12
	c := buildRandom(t, 9, nu, nt, nv, 60)
	const nu2 = 16
	d := NewDelta(nu2, nt, nv)
	for u := 0; u < nu2; u++ {
		d.MustAdd(u, u%nt, (u*3)%nv, 1)
		d.MustAdd(u, (u+1)%nt, (u*5)%nv, 1)
	}
	got, err := c.ApplyDelta(d)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	full := NewBuilder(nu2, nt, nv)
	for _, cell := range c.Cells() {
		full.MustAdd(int(cell.U), int(cell.T), int(cell.V), cell.Score)
	}
	for u := 0; u < nu2; u++ {
		full.MustAdd(u, u%nt, (u*3)%nv, 1)
		full.MustAdd(u, (u+1)%nt, (u*5)%nv, 1)
	}
	assertSameCuboid(t, got, full.Build())
	for u := 0; u < nu2; u++ {
		if lo, hi := got.UserSpan(u); hi <= lo {
			t.Fatalf("user %d empty after a delta that touched every user", u)
		}
	}
}

// ApplyDelta must stay count-then-fill: a frozen delta application is
// one exact-size cell merge plus the shared CSR build.
func TestApplyDeltaAllocationBound(t *testing.T) {
	c := buildRandom(t, 13, 50, 8, 60, 2000)
	d := NewDelta(55, 9, 66)
	r := rand.New(rand.NewSource(14))
	for i := 0; i < 500; i++ {
		d.MustAdd(r.Intn(55), r.Intn(9), r.Intn(66), 1)
	}
	d.freeze() // freezing (sort+dedup) is once-per-delta, not per-apply
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := c.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 14 {
		t.Errorf("ApplyDelta allocates %v times, want <= 14 (count-then-fill regressed)", allocs)
	}
}
