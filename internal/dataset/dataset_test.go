package dataset

import (
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
	if i, ok := d.LookupItem("news"); !ok || i != 1 {
		t.Errorf("LookupItem(news) = (%d,%v)", i, ok)
	}
	if _, ok := d.LookupUser("mallory"); ok {
		t.Error("LookupUser found an unknown user")
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
