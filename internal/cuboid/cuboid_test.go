package cuboid

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func buildSample(t *testing.T) *Cuboid {
	t.Helper()
	b := NewBuilder(3, 2, 4)
	// user 0: items 0,1 in t0; item 2 in t1
	b.MustAdd(0, 0, 0, 1)
	b.MustAdd(0, 0, 1, 2)
	b.MustAdd(0, 1, 2, 1)
	// user 1: item 0 twice in t0 (merged), item 3 in t1
	b.MustAdd(1, 0, 0, 1)
	b.MustAdd(1, 0, 0, 3)
	b.MustAdd(1, 1, 3, 1)
	// user 2: nothing
	return b.Build()
}

func TestBuilderMergesDuplicates(t *testing.T) {
	c := buildSample(t)
	if c.NNZ() != 5 {
		t.Fatalf("NNZ = %d, want 5 (duplicate merged)", c.NNZ())
	}
	for _, cell := range c.Cells() {
		if cell.U == 1 && cell.T == 0 && cell.V == 0 {
			if cell.Score != 4 {
				t.Errorf("merged score = %v, want 4", cell.Score)
			}
			return
		}
	}
	t.Fatal("merged cell not found")
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder(2, 2, 2)
	tests := []struct {
		name       string
		u, tt, v   int
		score      float64
		wantErrSub bool
	}{
		{"ok", 0, 0, 0, 1, false},
		{"user high", 2, 0, 0, 1, true},
		{"user negative", -1, 0, 0, 1, true},
		{"interval high", 0, 2, 0, 1, true},
		{"item high", 0, 0, 2, 1, true},
		{"zero score", 0, 0, 0, 0, true},
		{"negative score", 0, 0, 0, -2, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := b.Add(tc.u, tc.tt, tc.v, tc.score)
			if (err != nil) != tc.wantErrSub {
				t.Errorf("Add error = %v, wantErr %v", err, tc.wantErrSub)
			}
		})
	}
}

func TestCellsSorted(t *testing.T) {
	c := buildSample(t)
	cells := c.Cells()
	for i := 1; i < len(cells); i++ {
		a, b := cells[i-1], cells[i]
		if a.U > b.U || (a.U == b.U && a.T > b.T) || (a.U == b.U && a.T == b.T && a.V >= b.V) {
			t.Fatalf("cells not strictly sorted at %d: %+v then %+v", i, a, b)
		}
	}
}

func TestSpans(t *testing.T) {
	c := buildSample(t)
	if lo, hi := c.UserSpan(0); hi-lo != 3 {
		t.Errorf("user 0 span [%d,%d), want 3 cells", lo, hi)
	}
	if lo, hi := c.UserSpan(2); hi != lo {
		t.Errorf("user 2 span [%d,%d), want empty", lo, hi)
	}
	if lo, hi := c.IntervalSpan(0); hi-lo != 3 {
		t.Errorf("interval 0 span [%d,%d), want 3 cells", lo, hi)
	}
	if lo, hi := c.IntervalSpan(1); hi-lo != 2 {
		t.Errorf("interval 1 span [%d,%d), want 2 cells", lo, hi)
	}
}

func TestScaled(t *testing.T) {
	c := buildSample(t)
	doubled := c.Scaled(func(Cell) float64 { return 2 })
	total := func(c *Cuboid) (s float64) {
		for _, cell := range c.Cells() {
			s += cell.Score
		}
		return s
	}
	if total(doubled) != 2*total(c) {
		t.Errorf("Scaled total = %v, want %v", total(doubled), 2*total(c))
	}
	// Zero weight drops cells.
	dropped := c.Scaled(func(cell Cell) float64 {
		if cell.T == 1 {
			return 0
		}
		return 1
	})
	if dropped.NNZ() != 3 {
		t.Errorf("Scaled with dropping NNZ = %d, want 3", dropped.NNZ())
	}
	// Original untouched.
	if c.NNZ() != 5 {
		t.Error("Scaled mutated the source cuboid")
	}
}

func TestSubset(t *testing.T) {
	c := buildSample(t)
	onlyT0 := c.Subset(func(_ int, cell Cell) bool { return cell.T == 0 })
	if onlyT0.NNZ() != 3 {
		t.Errorf("Subset NNZ = %d, want 3", onlyT0.NNZ())
	}
	if onlyT0.NumIntervals() != c.NumIntervals() {
		t.Error("Subset changed dimensions")
	}
}

func TestComputeStats(t *testing.T) {
	c := buildSample(t)
	s := ComputeStats(c)
	if s.RatedUsers != 2 {
		t.Errorf("RatedUsers = %d, want 2", s.RatedUsers)
	}
	if s.RatedItems != 4 {
		t.Errorf("RatedItems = %d, want 4", s.RatedItems)
	}
	if s.ItemUsers[0] != 2 { // item 0 rated by users 0 and 1
		t.Errorf("ItemUsers[0] = %d, want 2", s.ItemUsers[0])
	}
	if s.IntervalUsers[0] != 2 || s.IntervalUsers[1] != 2 {
		t.Errorf("IntervalUsers = %v, want [2 2]", s.IntervalUsers)
	}
	if s.TotalScore != 9 {
		t.Errorf("TotalScore = %v, want 9", s.TotalScore)
	}
}

func TestItemIntervalUsers(t *testing.T) {
	c := buildSample(t)
	iu := ItemIntervalUsers(c)
	if iu[0][0] != 2 {
		t.Errorf("Nt(v=0,t=0) = %d, want 2", iu[0][0])
	}
	if iu[1][2] != 1 {
		t.Errorf("Nt(v=2,t=1) = %d, want 1", iu[1][2])
	}
	if _, ok := iu[1][0]; ok {
		t.Error("Nt(v=0,t=1) present, want absent")
	}
}

func TestItemFrequencySeries(t *testing.T) {
	c := buildSample(t)
	series := ItemFrequencySeries(c, 0)
	if series[0] != 2 || series[1] != 0 {
		t.Errorf("series = %v, want [2 0]", series)
	}
	norm := NormalizeSeries(series)
	if norm[0] != 1 {
		t.Errorf("normalized peak = %v, want 1", norm[0])
	}
	zero := NormalizeSeries([]float64{0, 0})
	if zero[0] != 0 || zero[1] != 0 {
		t.Errorf("zero series normalized = %v, want zeros", zero)
	}
}

func TestRoundtrip(t *testing.T) {
	c := buildSample(t)
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.NumUsers() != c.NumUsers() || got.NumIntervals() != c.NumIntervals() || got.NumItems() != c.NumItems() {
		t.Fatal("roundtrip changed dimensions")
	}
	if !reflect.DeepEqual(got.Cells(), c.Cells()) {
		t.Error("roundtrip changed cells")
	}
	gotLo, gotHi := got.UserSpan(1)
	wantLo, wantHi := c.UserSpan(1)
	if gotLo != wantLo || gotHi != wantHi {
		t.Error("roundtrip lost CSR row pointers")
	}
}

func TestReadRejectsUnsortedCells(t *testing.T) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	wire := struct {
		NumUsers, NumIntervals, NumItems int
		Cells                            []Cell
	}{
		NumUsers: 2, NumIntervals: 2, NumItems: 2,
		Cells: []Cell{
			{U: 1, T: 0, V: 0, Score: 1},
			{U: 0, T: 0, V: 1, Score: 1},
		},
	}
	if err := enc.Encode(&wire); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil {
		t.Error("Read accepted cells out of (U,T,V) order")
	}
}

func TestReadRejectsCorruptCells(t *testing.T) {
	// Hand-craft a wire struct with an out-of-range cell via a legal
	// cuboid then larger dims... simplest: encode wire directly.
	c := buildSample(t)
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	// Truncated stream must error.
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Error("Read accepted a truncated stream")
	}
}

// Property: for random rating sets, Build is idempotent under
// re-insertion order (sorting + merging makes it canonical) and
// roundtrips through serialization.
func TestBuildCanonicalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const nu, nt, nv = 5, 4, 6
		type key struct{ u, t, v int }
		n := r.Intn(40) + 1
		ratings := make([]key, n)
		for i := range ratings {
			ratings[i] = key{r.Intn(nu), r.Intn(nt), r.Intn(nv)}
		}
		b1 := NewBuilder(nu, nt, nv)
		for _, k := range ratings {
			b1.MustAdd(k.u, k.t, k.v, 1)
		}
		// Shuffled insertion order.
		b2 := NewBuilder(nu, nt, nv)
		perm := rng.Perm(n)
		for _, i := range perm {
			k := ratings[i]
			b2.MustAdd(k.u, k.t, k.v, 1)
		}
		c1, c2 := b1.Build(), b2.Build()
		if !reflect.DeepEqual(c1.Cells(), c2.Cells()) {
			return false
		}
		var buf bytes.Buffer
		if err := c1.Write(&buf); err != nil {
			return false
		}
		c3, err := Read(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(c1.Cells(), c3.Cells())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the two CSR views partition the cell set. Walking UserSpan
// for every user enumerates exactly Cells() in order (CSR index i is
// Cells() index i), and walking IntervalSpan for every interval visits
// each cell exactly once with matching coordinates — including cuboids
// with empty users and empty intervals.
func TestCSRMatchesCellsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Small dims with a low fill rate so some users and intervals
		// stay empty; occasionally build an entirely empty cuboid.
		nu, nt, nv := 2+r.Intn(7), 1+r.Intn(6), 2+r.Intn(8)
		b := NewBuilder(nu, nt, nv)
		for i := r.Intn(40); i > 0; i-- {
			b.MustAdd(r.Intn(nu), r.Intn(nt), r.Intn(nv), 1+r.Float64())
		}
		c := b.Build()
		cells := c.Cells()
		ts, vs, scores := c.CSR()
		if len(ts) != len(cells) || len(vs) != len(cells) || len(scores) != len(cells) {
			return false
		}
		// By-user view: spans are contiguous, cover [0, NNZ), and the
		// columns reproduce every cell in Cells() order.
		next := 0
		for u := 0; u < c.NumUsers(); u++ {
			lo, hi := c.UserSpan(u)
			if lo != next || hi < lo {
				return false
			}
			for i := lo; i < hi; i++ {
				cell := cells[i]
				if int(cell.U) != u || ts[i] != cell.T || vs[i] != cell.V || scores[i] != cell.Score {
					return false
				}
			}
			next = hi
		}
		if next != c.NNZ() {
			return false
		}
		// By-interval view: spans partition the cells by T, each cell
		// visited exactly once, in ascending global-cell order within an
		// interval.
		us, tvs, tscores := c.IntervalCSR()
		seen := make([]bool, c.NNZ())
		next = 0
		for tt := 0; tt < c.NumIntervals(); tt++ {
			lo, hi := c.IntervalSpan(tt)
			if lo != next || hi < lo {
				return false
			}
			prev := -1
			for i := lo; i < hi; i++ {
				// Locate the unique matching cell in the canonical slice.
				ci := -1
				for j, cell := range cells {
					if !seen[j] && cell.U == us[i] && int(cell.T) == tt && cell.V == tvs[i] && cell.Score == tscores[i] {
						ci = j
						break
					}
				}
				if ci < 0 || ci < prev {
					return false
				}
				seen[ci] = true
				prev = ci
			}
			next = hi
		}
		if next != c.NNZ() {
			return false
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Construction must stay count-then-fill: a handful of exact-size
// allocations per cuboid, not O(nnz) append growth. The bound is loose
// (a cuboid needs ~10 backing arrays plus the struct) so it only trips
// on a regression back to incremental growth.
func TestBuildAllocationBound(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	b := NewBuilder(50, 8, 60)
	for i := 0; i < 2000; i++ {
		b.MustAdd(r.Intn(50), r.Intn(8), r.Intn(60), 1+r.Float64())
	}
	base := b.Build()
	allocs := testing.AllocsPerRun(10, func() {
		fromCells(base.numUsers, base.numIntervals, base.numItems, base.cells)
	})
	if allocs > 16 {
		t.Errorf("fromCells allocates %v times per build, want <= 16 (count-then-fill regressed)", allocs)
	}
	scaledAllocs := testing.AllocsPerRun(10, func() {
		base.Scaled(func(Cell) float64 { return 2 })
	})
	if scaledAllocs > 20 {
		t.Errorf("Scaled allocates %v times, want <= 20", scaledAllocs)
	}
}
