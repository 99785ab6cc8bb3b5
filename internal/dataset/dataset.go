// Package dataset provides the ingestion layer between raw social-media
// interaction logs and the rating cuboid: string-ID interning, time
// gridding at a configurable interval length (the paper's Section 5.3.3
// sweeps this), JSONL/CSV persistence, and the evaluation protocol's
// per-(user, interval) train/test splits and k-fold cross validation
// (Section 5.3.1).
package dataset

import (
	"fmt"
	"math/rand"

	"tcam/internal/cuboid"
)

// Event is one raw interaction: a user acted on an item at an absolute
// time (ticks; the unit is up to the producer — the synthetic generators
// use days) with a rating score.
type Event struct {
	User  int     `json:"user"`
	Item  int     `json:"item"`
	Time  int64   `json:"time"`
	Score float64 `json:"score"`
}

// Interactions is an interaction log with interned user and item
// identifiers. The zero value is not usable; construct with New.
type Interactions struct {
	userIDs  []string
	itemIDs  []string
	userIdx  map[string]int
	itemIdx  map[string]int
	events   []Event
	timeSpan bool
	minTime  int64
	maxTime  int64
}

// New returns an empty interaction log.
func New() *Interactions {
	return &Interactions{
		userIdx: make(map[string]int),
		itemIdx: make(map[string]int),
	}
}

// InternUser returns the dense index for userID, assigning one on first
// sight.
func (d *Interactions) InternUser(userID string) int {
	if i, ok := d.userIdx[userID]; ok {
		return i
	}
	i := len(d.userIDs)
	d.userIDs = append(d.userIDs, userID)
	d.userIdx[userID] = i
	return i
}

// InternItem returns the dense index for itemID, assigning one on first
// sight.
func (d *Interactions) InternItem(itemID string) int {
	if i, ok := d.itemIdx[itemID]; ok {
		return i
	}
	i := len(d.itemIDs)
	d.itemIDs = append(d.itemIDs, itemID)
	d.itemIdx[itemID] = i
	return i
}

// Add records an interaction by string identifiers. Scores must be
// positive.
func (d *Interactions) Add(userID, itemID string, time int64, score float64) error {
	if score <= 0 {
		return fmt.Errorf("dataset: non-positive score %v for %s/%s", score, userID, itemID)
	}
	d.addEvent(Event{User: d.InternUser(userID), Item: d.InternItem(itemID), Time: time, Score: score})
	return nil
}

func (d *Interactions) addEvent(e Event) {
	if !d.timeSpan {
		d.minTime, d.maxTime, d.timeSpan = e.Time, e.Time, true
	} else {
		if e.Time < d.minTime {
			d.minTime = e.Time
		}
		if e.Time > d.maxTime {
			d.maxTime = e.Time
		}
	}
	d.events = append(d.events, e)
}

// NumUsers returns the number of interned users.
func (d *Interactions) NumUsers() int { return len(d.userIDs) }

// NumItems returns the number of interned items.
func (d *Interactions) NumItems() int { return len(d.itemIDs) }

// NumEvents returns the number of recorded interactions.
func (d *Interactions) NumEvents() int { return len(d.events) }

// Events returns the raw event slice in insertion order. Callers must
// not modify it.
func (d *Interactions) Events() []Event { return d.events }

// UserID returns the string identifier of dense user index u.
func (d *Interactions) UserID(u int) string { return d.userIDs[u] }

// ItemID returns the string identifier of dense item index v.
func (d *Interactions) ItemID(v int) string { return d.itemIDs[v] }

// LookupItem returns the dense index of itemID and whether it is known.
func (d *Interactions) LookupItem(itemID string) (int, bool) {
	i, ok := d.itemIdx[itemID]
	return i, ok
}

// LookupUser returns the dense index of userID and whether it is known.
func (d *Interactions) LookupUser(userID string) (int, bool) {
	i, ok := d.userIdx[userID]
	return i, ok
}

// TimeSpan returns the [min, max] event times. ok is false when the log
// is empty.
func (d *Interactions) TimeSpan() (min, max int64, ok bool) {
	return d.minTime, d.maxTime, d.timeSpan
}

// TimeGrid maps absolute event times onto dense interval indices of a
// fixed length. It is produced by Grid and persisted alongside models so
// online queries can translate wall-clock time into an interval.
type TimeGrid struct {
	Origin int64 // time of the left edge of interval 0
	Length int64 // interval length in time ticks
	Num    int   // number of intervals
}

// IntervalOf returns the interval index containing time, clamped into
// [0, Num).
func (g TimeGrid) IntervalOf(time int64) int {
	if g.Length <= 0 || g.Num <= 0 {
		return 0
	}
	i := int((time - g.Origin) / g.Length)
	if i < 0 {
		return 0
	}
	if i >= g.Num {
		return g.Num - 1
	}
	return i
}

// Grid buckets the log's events into intervals of the given length and
// returns the resulting rating cuboid plus the grid. Scores of repeated
// (user, interval, item) interactions accumulate, matching the paper's
// frequency-as-score convention. intervalLen must be positive and the
// log non-empty.
func (d *Interactions) Grid(intervalLen int64) (*cuboid.Cuboid, TimeGrid, error) {
	if intervalLen <= 0 {
		return nil, TimeGrid{}, fmt.Errorf("dataset: non-positive interval length %d", intervalLen)
	}
	if len(d.events) == 0 {
		return nil, TimeGrid{}, fmt.Errorf("dataset: cannot grid an empty log")
	}
	num := int((d.maxTime-d.minTime)/intervalLen) + 1
	grid := TimeGrid{Origin: d.minTime, Length: intervalLen, Num: num}
	b := cuboid.NewBuilder(len(d.userIDs), num, len(d.itemIDs))
	for _, e := range d.events {
		if err := b.Add(e.User, grid.IntervalOf(e.Time), e.Item, e.Score); err != nil {
			return nil, TimeGrid{}, err
		}
	}
	return b.Build(), grid, nil
}

// Split holds a train/test partition of a cuboid under the paper's
// protocol: within every (user, interval) group the user's items are
// split randomly, so the test set asks "which of the items u rated in t
// were held out".
type Split struct {
	Train *cuboid.Cuboid
	Test  *cuboid.Cuboid
}

// SplitPerInterval partitions c into train/test with the given test
// fraction inside every (user, interval) group, as in Section 5.3.1
// (80%/20% in the paper). Groups too small to yield a test item stay
// fully in train. The split is deterministic for a given rng state.
func SplitPerInterval(rng *rand.Rand, c *cuboid.Cuboid, testFrac float64) Split {
	if testFrac < 0 || testFrac >= 1 {
		panic(fmt.Sprintf("dataset: test fraction %v outside [0,1)", testFrac))
	}
	inTest := make([]bool, c.NNZ())
	forEachGroup(c, func(lo, hi int) {
		n := hi - lo
		k := int(float64(n) * testFrac)
		if k == 0 {
			return
		}
		perm := rng.Perm(n)
		for i := 0; i < k; i++ {
			inTest[lo+perm[i]] = true
		}
	})
	return splitByFlag(c, inTest)
}

func splitByFlag(c *cuboid.Cuboid, inTest []bool) Split {
	cells := c.Cells()
	trainB := cuboid.NewBuilder(c.NumUsers(), c.NumIntervals(), c.NumItems())
	testB := cuboid.NewBuilder(c.NumUsers(), c.NumIntervals(), c.NumItems())
	for i, cell := range cells {
		dst := trainB
		if inTest[i] {
			dst = testB
		}
		dst.MustAdd(int(cell.U), int(cell.T), int(cell.V), cell.Score)
	}
	return Split{Train: trainB.Build(), Test: testB.Build()}
}

// forEachGroup invokes fn once per (user, interval) group with the
// group's cell-index range [lo, hi). Cells() is sorted by (U, T, V), so
// every group is a contiguous run of the CSR row for its user.
func forEachGroup(c *cuboid.Cuboid, fn func(lo, hi int)) {
	ts, _, _ := c.CSR()
	for u := 0; u < c.NumUsers(); u++ {
		ulo, uhi := c.UserSpan(u)
		start := ulo
		for i := ulo + 1; i <= uhi; i++ {
			if i == uhi || ts[i] != ts[start] {
				fn(start, i)
				start = i
			}
		}
	}
}

// KFolds returns a k-fold cross-validation partition of c under the
// per-(user, interval) protocol: each group's items are dealt round-robin
// (after a shuffle) into k folds; fold i's Test is its share and Train is
// everything else. Groups with fewer than k items contribute test cells
// to only some folds. k must be at least 2.
func KFolds(rng *rand.Rand, c *cuboid.Cuboid, k int) []Split {
	if k < 2 {
		panic("dataset: k-fold requires k >= 2")
	}
	fold := make([]int, c.NNZ())
	forEachGroup(c, func(lo, hi int) {
		perm := rng.Perm(hi - lo)
		for i, p := range perm {
			fold[lo+p] = i % k
		}
	})
	splits := make([]Split, k)
	for f := 0; f < k; f++ {
		inTest := make([]bool, c.NNZ())
		for i := range inTest {
			inTest[i] = fold[i] == f
		}
		splits[f] = splitByFlag(c, inTest)
	}
	return splits
}
