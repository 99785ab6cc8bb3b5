package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"tcam/internal/cuboid"
)

func sampleLog(t *testing.T) *Interactions {
	t.Helper()
	d := New()
	add := func(u, v string, tm int64) {
		t.Helper()
		if err := d.Add(u, v, tm, 1); err != nil {
			t.Fatal(err)
		}
	}
	add("alice", "flu", 0)
	add("alice", "news", 5)
	add("bob", "flu", 12)
	add("bob", "news", 12)
	add("carol", "swineflu", 25)
	add("alice", "flu", 25) // second rating by alice on flu, later interval
	return d
}

func TestInterning(t *testing.T) {
	d := sampleLog(t)
	if d.NumUsers() != 3 || d.NumItems() != 3 || d.NumEvents() != 6 {
		t.Fatalf("counts = (%d,%d,%d), want (3,3,6)", d.NumUsers(), d.NumItems(), d.NumEvents())
	}
	if d.UserID(0) != "alice" || d.ItemID(2) != "swineflu" {
		t.Error("interning order not insertion order")
	}
	if i, ok := d.Items.Lookup("news"); !ok || i != 1 {
		t.Errorf("Items.Lookup(news) = (%d,%v)", i, ok)
	}
	if _, ok := d.Users.Lookup("mallory"); ok {
		t.Error("Users.Lookup found an unknown user")
	}
}

func TestAddRejectsNonPositiveScore(t *testing.T) {
	d := New()
	if err := d.Add("u", "v", 0, 0); err == nil {
		t.Error("Add accepted zero score")
	}
	if err := d.Add("u", "v", 0, -1); err == nil {
		t.Error("Add accepted negative score")
	}
}

func TestTimeSpan(t *testing.T) {
	d := sampleLog(t)
	min, max, ok := d.TimeSpan()
	if !ok || min != 0 || max != 25 {
		t.Errorf("TimeSpan = (%d,%d,%v), want (0,25,true)", min, max, ok)
	}
	if _, _, ok := New().TimeSpan(); ok {
		t.Error("empty log reports a time span")
	}
}

func TestGrid(t *testing.T) {
	d := sampleLog(t)
	c, grid, err := d.Grid(10)
	if err != nil {
		t.Fatal(err)
	}
	if grid.Num != 3 {
		t.Fatalf("grid.Num = %d, want 3 (times 0..25, length 10)", grid.Num)
	}
	if c.NumIntervals() != 3 || c.NumUsers() != 3 || c.NumItems() != 3 {
		t.Fatalf("cuboid dims = %dx%dx%d", c.NumUsers(), c.NumIntervals(), c.NumItems())
	}
	// alice/flu: once in interval 0 and once in interval 2 — two cells.
	var alice [][2]int32 // (interval, item)
	lo, hi := c.UserSpan(0)
	for _, cell := range c.Cells()[lo:hi] {
		alice = append(alice, [2]int32{cell.T, cell.V})
	}
	if want := [][2]int32{{0, 0}, {0, 1}, {2, 0}}; !reflect.DeepEqual(alice, want) {
		t.Errorf("alice's (interval, item) cells = %v, want %v", alice, want)
	}
}

func TestGridErrors(t *testing.T) {
	if _, _, err := New().Grid(10); err == nil {
		t.Error("Grid accepted an empty log")
	}
	d := sampleLog(t)
	if _, _, err := d.Grid(0); err == nil {
		t.Error("Grid accepted zero interval length")
	}
}

func TestIntervalOfClamps(t *testing.T) {
	g := TimeGrid{Origin: 100, Length: 10, Num: 5}
	tests := []struct {
		time int64
		want int
	}{
		{100, 0}, {109, 0}, {110, 1}, {149, 4}, {999, 4}, {50, 0},
	}
	for _, tt := range tests {
		if got := g.IntervalOf(tt.time); got != tt.want {
			t.Errorf("IntervalOf(%d) = %d, want %d", tt.time, got, tt.want)
		}
	}
	if (TimeGrid{}).IntervalOf(5) != 0 {
		t.Error("zero grid should clamp to 0")
	}
	// Times whose distance from the origin does not fit an int64 still
	// fall on the right side of it.
	g = TimeGrid{Origin: -50, Length: 1, Num: 5}
	if got := g.IntervalOf(math.MaxInt64); got != 4 {
		t.Errorf("IntervalOf(MaxInt64) from a negative origin = %d, want 4", got)
	}
	if got := (TimeGrid{Origin: 50, Length: 1, Num: 5}).IntervalOf(math.MinInt64); got != 0 {
		t.Errorf("IntervalOf(MinInt64) = %d, want 0", got)
	}
	if got := g.Start(g.IntervalOf(-47)); got != -47 {
		t.Errorf("Start(IntervalOf(-47)) = %d, want -47", got)
	}
}

// A vocabulary built over existing names shares them until it grows,
// and never writes into the slice it was given.
func TestVocab(t *testing.T) {
	boot := make([]string, 2, 8)
	boot[0], boot[1] = "a", "b"
	v := NewVocab(boot)
	if i := v.Intern("b"); i != 1 || v.Len() != 2 {
		t.Fatalf("Intern(b) = %d, Len %d", i, v.Len())
	}
	before := v.Names()
	if i := v.Intern("c"); i != 2 {
		t.Fatalf("Intern(c) = %d, want 2", i)
	}
	if got := boot[:3][2]; got != "" {
		t.Errorf("Intern wrote %q into the spare capacity of the slice the vocabulary was built from", got)
	}
	if len(before) != 2 || !reflect.DeepEqual(v.Names(), []string{"a", "b", "c"}) {
		t.Errorf("Names before %v, after %v", before, v.Names())
	}
	if _, ok := v.Lookup("d"); ok {
		t.Error("Lookup found a name never interned")
	}
	var zero Vocab
	if _, ok := zero.Lookup("x"); ok || zero.Intern("x") != 0 || zero.Len() != 1 {
		t.Error("zero Vocab is not an empty, usable vocabulary")
	}
}

// Batch gridding is the stream path started from nothing: gridding a
// whole log equals gridding any prefix of it and carrying on from that
// prefix's vocabularies and grid through a Gridder, the way the
// streaming updater carries on from a boot bundle — same cells, same
// vocabulary order, same grid. Scores are small integers, so a cell
// rated on both sides of the cut sums exactly.
func TestGridIsStreamFromNothing(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	type rec struct {
		user, item string
		time       int64
		score      float64
	}
	recs := []rec{{"u0", "v0", 1000, 1}} // the earliest event first: every prefix has the full log's origin
	now := int64(1000)
	for i := 0; i < 60; i++ {
		now += int64(r.Intn(9)) - 2 // mostly forward, sometimes into an older interval
		recs = append(recs, rec{fmt.Sprintf("u%d", r.Intn(6+i/10)), fmt.Sprintf("v%d", r.Intn(8+i/6)), max(now, 1000), float64(1 + r.Intn(3))})
	}
	gridded := func(recs []rec) (*Interactions, *cuboid.Cuboid, TimeGrid) {
		d := New()
		for _, x := range recs {
			if err := d.Add(x.user, x.item, x.time, x.score); err != nil {
				t.Fatal(err)
			}
		}
		c, grid, err := d.Grid(7)
		if err != nil {
			t.Fatal(err)
		}
		return d, c, grid
	}
	all, want, wantGrid := gridded(recs)
	for cut := 1; cut <= len(recs); cut++ {
		boot, bootCells, bootGrid := gridded(recs[:cut])
		users, items := NewVocab(boot.Users.Names()), NewVocab(boot.Items.Names())
		g := NewGridder(users, items, bootGrid)
		for _, x := range recs[cut:] {
			if err := g.Add(Event{User: users.Intern(x.user), Item: items.Intern(x.item), Time: x.time, Score: x.score}); err != nil {
				t.Fatal(err)
			}
		}
		got, err := bootCells.ApplyDelta(g.Delta())
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if g.Grid != wantGrid {
			t.Fatalf("cut %d: grid %+v, want %+v", cut, g.Grid, wantGrid)
		}
		if !reflect.DeepEqual(users.Names(), all.Users.Names()) || !reflect.DeepEqual(items.Names(), all.Items.Names()) {
			t.Fatalf("cut %d: vocabularies %v / %v, want %v / %v", cut, users.Names(), items.Names(), all.Users.Names(), all.Items.Names())
		}
		if got.NumUsers() != want.NumUsers() || got.NumIntervals() != want.NumIntervals() || got.NumItems() != want.NumItems() {
			t.Fatalf("cut %d: dims %d×%d×%d, want %d×%d×%d", cut, got.NumUsers(), got.NumIntervals(), got.NumItems(),
				want.NumUsers(), want.NumIntervals(), want.NumItems())
		}
		if !reflect.DeepEqual(got.Cells(), want.Cells()) {
			t.Fatalf("cut %d: cells differ from gridding the whole log", cut)
		}
	}
}

// One event may open at most MaxOpenIntervals intervals: a timestamp
// further out is an error, in a batch and on a stream alike, decided
// against the grid as grown so far — never an allocation sized by it.
func TestGridRefusesFarFutureEvent(t *testing.T) {
	d := sampleLog(t) // times 0..25
	if err := d.Add("alice", "flu", 5e8, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Grid(10); err == nil {
		t.Error("Grid gridded an event fifty million intervals past the rest")
	}
	// A batch is judged in time order, not log order: a long log
	// written user by user grids as long as it has no such hole.
	byUser := New()
	for _, time := range []int64{0, 4000, 2000} {
		if err := byUser.Add("alice", "flu", time, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, grid, err := byUser.Grid(10); err != nil || grid.Num != 401 {
		t.Errorf("Grid of a 401-interval log out of time order: %d intervals, err %v", grid.Num, err)
	}

	var users, items Vocab
	g := NewGridder(&users, &items, TimeGrid{Origin: 100, Length: 10, Num: 3})
	add := func(time int64) error {
		return g.Add(Event{User: users.Intern("u"), Item: items.Intern("v"), Time: time, Score: 1})
	}
	edge := g.Grid.Start(3 + MaxOpenIntervals) // the first time that opens one interval too many
	for _, far := range []int64{edge, 100 + 5e8, math.MaxInt64} {
		if _, err := g.Open(far); err == nil {
			t.Errorf("Open admitted time %d on a 3-interval grid", far)
		}
		if err := add(far); err == nil {
			t.Errorf("Add admitted time %d on a 3-interval grid", far)
		}
	}
	if g.Grid.Num != 3 {
		t.Fatalf("refused events grew the grid to %d intervals", g.Grid.Num)
	}
	if err := add(edge - 1); err != nil || g.Grid.Num != 3+MaxOpenIntervals {
		t.Fatalf("an event opening exactly MaxOpenIntervals: err %v, grid %d", err, g.Grid.Num)
	}
	if err := add(edge); err != nil {
		t.Errorf("the refused time is admitted once the grid has grown towards it: %v", err)
	}
	if err := add(50); err != nil { // before the origin: interval 0, as ever
		t.Error(err)
	}
	c, err := new(cuboid.Cuboid).ApplyDelta(g.Delta())
	if err != nil || c.NNZ() != 3 || c.NumIntervals() != g.Grid.Num {
		t.Errorf("gridded cuboid: err %v, %d cells, %d intervals (grid %d)", err, c.NNZ(), c.NumIntervals(), g.Grid.Num)
	}
}

func TestSplitPerInterval(t *testing.T) {
	// A user with 10 items in one interval: expect exactly 2 in test at
	// 20%.
	b := cuboid.NewBuilder(1, 1, 10)
	for v := 0; v < 10; v++ {
		b.MustAdd(0, 0, v, 1)
	}
	c := b.Build()
	sp := SplitPerInterval(rand.New(rand.NewSource(1)), c, 0.2)
	if sp.Test.NNZ() != 2 || sp.Train.NNZ() != 8 {
		t.Errorf("split sizes = train %d / test %d, want 8/2", sp.Train.NNZ(), sp.Test.NNZ())
	}
}

func TestSplitSmallGroupsStayInTrain(t *testing.T) {
	b := cuboid.NewBuilder(2, 2, 3)
	b.MustAdd(0, 0, 0, 1) // singleton groups
	b.MustAdd(0, 1, 1, 1)
	b.MustAdd(1, 0, 2, 1)
	c := b.Build()
	sp := SplitPerInterval(rand.New(rand.NewSource(1)), c, 0.2)
	if sp.Test.NNZ() != 0 || sp.Train.NNZ() != 3 {
		t.Errorf("singleton groups leaked into test: train %d / test %d", sp.Train.NNZ(), sp.Test.NNZ())
	}
}

func TestSplitPanicsOnBadFraction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for testFrac = 1")
		}
	}()
	b := cuboid.NewBuilder(1, 1, 1)
	b.MustAdd(0, 0, 0, 1)
	SplitPerInterval(rand.New(rand.NewSource(1)), b.Build(), 1)
}

func TestKFoldsPartition(t *testing.T) {
	b := cuboid.NewBuilder(3, 2, 12)
	rng := rand.New(rand.NewSource(9))
	for u := 0; u < 3; u++ {
		for tt := 0; tt < 2; tt++ {
			for v := 0; v < 12; v++ {
				if rng.Float64() < 0.7 {
					b.MustAdd(u, tt, v, 1)
				}
			}
		}
	}
	c := b.Build()
	folds := KFolds(rand.New(rand.NewSource(2)), c, 5)
	if len(folds) != 5 {
		t.Fatalf("len(folds) = %d", len(folds))
	}
	totalTest := 0
	for i, f := range folds {
		if f.Train.NNZ()+f.Test.NNZ() != c.NNZ() {
			t.Errorf("fold %d does not partition: %d + %d != %d", i, f.Train.NNZ(), f.Test.NNZ(), c.NNZ())
		}
		totalTest += f.Test.NNZ()
	}
	// Every cell lands in test exactly once across the k folds.
	if totalTest != c.NNZ() {
		t.Errorf("test cells across folds = %d, want %d", totalTest, c.NNZ())
	}
}

func TestKFoldsPanicsOnK1(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k = 1")
		}
	}()
	b := cuboid.NewBuilder(1, 1, 1)
	b.MustAdd(0, 0, 0, 1)
	KFolds(rand.New(rand.NewSource(1)), b.Build(), 1)
}

// Property: every split preserves cell multiset and never puts a
// (u,t,v) cell in both halves.
func TestSplitPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := cuboid.NewBuilder(5, 4, 8)
		for i := 0; i < 90; i++ {
			b.MustAdd(r.Intn(5), r.Intn(4), r.Intn(8), 1)
		}
		c := b.Build()
		sp := SplitPerInterval(r, c, 0.25)
		if sp.Train.NNZ()+sp.Test.NNZ() != c.NNZ() {
			return false
		}
		// No overlap: a (u,t,v) present in test must be absent in train.
		seen := map[[3]int32]bool{}
		for _, cell := range sp.Test.Cells() {
			seen[[3]int32{cell.U, cell.T, cell.V}] = true
		}
		for _, cell := range sp.Train.Cells() {
			if seen[[3]int32{cell.U, cell.T, cell.V}] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
