// Package dataset provides the ingestion layer between raw social-media
// interaction logs and the rating cuboid: string-ID interning, time
// gridding at a configurable interval length (the paper's Section 5.3.3
// sweeps this), JSONL persistence, and the evaluation protocol's
// per-(user, interval) train/test splits and k-fold cross validation
// (Section 5.3.1).
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

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

// Vocab is an append-only vocabulary: names in arrival order and the
// name → dense index map over them, so an index, once assigned, never
// changes. The zero value is empty and usable. Not safe for concurrent
// use — readers and a writer each keep their own.
type Vocab struct {
	names []string
	index map[string]int
}

// NewVocab returns a vocabulary holding names in order. It does not
// copy them: the capacity is clipped, so the first Intern of an unseen
// name moves the vocabulary to storage of its own.
func NewVocab(names []string) *Vocab {
	v := &Vocab{names: names[:len(names):len(names)], index: make(map[string]int, len(names))}
	for i, name := range names {
		v.index[name] = i
	}
	return v
}

// Intern returns the dense index of name, assigning the next one on
// first sight.
func (v *Vocab) Intern(name string) int {
	if i, ok := v.index[name]; ok {
		return i
	}
	if v.index == nil {
		v.index = make(map[string]int)
	}
	i := len(v.names)
	v.names = append(v.names, name)
	v.index[name] = i
	return i
}

// Lookup returns the dense index of name and whether it is known.
func (v *Vocab) Lookup(name string) (int, bool) {
	i, ok := v.index[name]
	return i, ok
}

// Len returns the number of names.
func (v *Vocab) Len() int { return len(v.names) }

// Names returns the names by dense index. Callers must not modify the
// slice; later Interns leave it as it was.
func (v *Vocab) Names() []string { return v.names }

// Interactions is an interaction log with interned user and item
// identifiers. The zero value is an empty log.
type Interactions struct {
	Users, Items Vocab // in order of first appearance
	events       []Event
	minTime      int64
	maxTime      int64
}

// New returns an empty interaction log.
func New() *Interactions { return &Interactions{} }

// Add records an interaction by string identifiers. Scores must be
// positive.
func (d *Interactions) Add(userID, itemID string, time int64, score float64) error {
	if score <= 0 {
		return fmt.Errorf("dataset: non-positive score %v for %s/%s", score, userID, itemID)
	}
	if len(d.events) == 0 {
		d.minTime, d.maxTime = time, time
	}
	d.minTime, d.maxTime = min(d.minTime, time), max(d.maxTime, time)
	d.events = append(d.events, Event{User: d.Users.Intern(userID), Item: d.Items.Intern(itemID), Time: time, Score: score})
	return nil
}

// NumUsers returns the number of interned users.
func (d *Interactions) NumUsers() int { return d.Users.Len() }

// NumItems returns the number of interned items.
func (d *Interactions) NumItems() int { return d.Items.Len() }

// NumEvents returns the number of recorded interactions.
func (d *Interactions) NumEvents() int { return len(d.events) }

// Events returns the raw event slice in insertion order. Callers must
// not modify it.
func (d *Interactions) Events() []Event { return d.events }

// UserID returns the string identifier of dense user index u.
func (d *Interactions) UserID(u int) string { return d.Users.names[u] }

// ItemID returns the string identifier of dense item index v.
func (d *Interactions) ItemID(v int) string { return d.Items.names[v] }

// TimeSpan returns the [min, max] event times. ok is false when the log
// is empty.
func (d *Interactions) TimeSpan() (min, max int64, ok bool) {
	return d.minTime, d.maxTime, len(d.events) > 0
}

// TimeGrid maps absolute event times onto dense interval indices of a
// fixed length. It is produced by Grid and persisted alongside models so
// online queries can translate wall-clock time into an interval.
type TimeGrid struct {
	Origin int64 // time of the left edge of interval 0
	Length int64 // interval length in time ticks
	Num    int   // number of intervals
}

// bucket is the one time → interval rule: the index of the interval
// containing time on the grid continued without end past Num. Times
// before the origin fall into interval zero. The difference is taken
// unsigned, so no pair of int64 times can wrap it into the past.
func (g TimeGrid) bucket(time int64) int {
	if g.Length <= 0 || time < g.Origin {
		return 0
	}
	return int(min((uint64(time)-uint64(g.Origin))/uint64(g.Length), math.MaxInt))
}

// IntervalOf returns the interval index containing time, clamped into
// [0, Num).
func (g TimeGrid) IntervalOf(time int64) int {
	return max(0, min(g.bucket(time), g.Num-1))
}

// Start returns the left edge of interval t, the earliest time
// IntervalOf maps to it.
func (g TimeGrid) Start(t int) int64 { return g.Origin + int64(t)*g.Length }

// MaxOpenIntervals bounds how many intervals one event may open past
// the end of the grid as grown so far. Every open interval costs each
// later generation a catalog-wide context list and a θ′ row (DESIGN.md
// §15), so without a bound one corrupt timestamp is an allocation no
// restart survives; a gap this long exceeds the whole span a bundle is
// trained on, where a retrain, not a fold-in, is the remedy.
const MaxOpenIntervals = 256

// Gridder turns events into cuboid cells on a grid that grows with
// them: the single definition of what an event becomes, for a batch
// gridded from nothing and for a stream extending a trained cuboid.
type Gridder struct {
	// Grid is the grid as grown so far: Num covers every event added.
	Grid TimeGrid

	users, items *Vocab // whose sizes bound the cells' indices
	delta        *cuboid.Delta
}

// NewGridder returns a Gridder that continues grid, for events whose
// dense indices come from users and items (which may keep growing).
func NewGridder(users, items *Vocab, grid TimeGrid) *Gridder {
	return &Gridder{Grid: grid, users: users, items: items, delta: cuboid.NewDelta(users.Len(), grid.Num, items.Len())}
}

// Open opens the intervals up to an event at time and returns the one it
// falls in, or an error — and no growth — when that would open more than
// MaxOpenIntervals at once. The verdict depends only on the times opened
// so far, so whether a record of a log is refused is a function of the
// log prefix before it. Callers that intern names open first: a refused
// record then leaves no name behind.
func (g *Gridder) Open(time int64) (int, error) {
	t := g.Grid.bucket(time)
	if t-g.Grid.Num >= MaxOpenIntervals {
		return 0, fmt.Errorf("dataset: time %d is interval %d of a grid grown to %d: more than %d intervals to open at once",
			time, t, g.Grid.Num, MaxOpenIntervals)
	}
	g.Grid.Num = max(g.Grid.Num, t+1)
	return t, nil
}

// Add opens e's interval and records its cell. Scores of repeated
// (user, interval, item) events accumulate in the order added.
func (g *Gridder) Add(e Event) error {
	t, err := g.Open(e.Time)
	if err != nil {
		return err
	}
	g.delta.Widen(g.users.Len(), g.Grid.Num, g.items.Len())
	return g.delta.Add(e.User, t, e.Item, e.Score)
}

// Delta returns the cells added so far as a delta for a cuboid over the
// grid and vocabularies as they stood at the last Add. The Gridder is
// spent once the delta is applied.
func (g *Gridder) Delta() *cuboid.Delta { return g.delta }

// Grid buckets the log's events into intervals of the given length and
// returns the resulting rating cuboid plus the grid: the events run
// through a Gridder from an empty grid at the earliest event time, and
// its delta is applied to an empty cuboid. Scores of repeated
// (user, interval, item) interactions accumulate, matching the paper's
// frequency-as-score convention. intervalLen must be positive and the
// log non-empty. The grid is opened in time order first, so a log is
// refused — whatever order it is written in — exactly when a stream
// delivering it chronologically would be: some event lies
// MaxOpenIntervals or more empty intervals past the one before it.
func (d *Interactions) Grid(intervalLen int64) (*cuboid.Cuboid, TimeGrid, error) {
	if intervalLen <= 0 {
		return nil, TimeGrid{}, fmt.Errorf("dataset: non-positive interval length %d", intervalLen)
	}
	if len(d.events) == 0 {
		return nil, TimeGrid{}, fmt.Errorf("dataset: cannot grid an empty log")
	}
	g := NewGridder(&d.Users, &d.Items, TimeGrid{Origin: d.minTime, Length: intervalLen})
	times := make([]int64, len(d.events))
	for i, e := range d.events {
		times[i] = e.Time
	}
	slices.Sort(times)
	for _, time := range times {
		if _, err := g.Open(time); err != nil {
			return nil, TimeGrid{}, err
		}
	}
	for _, e := range d.events {
		if err := g.Add(e); err != nil {
			return nil, TimeGrid{}, err
		}
	}
	c, err := new(cuboid.Cuboid).ApplyDelta(g.Delta())
	return c, g.Grid, err
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
	return Split{
		Train: c.Subset(func(i int, _ cuboid.Cell) bool { return !inTest[i] }),
		Test:  c.Subset(func(i int, _ cuboid.Cell) bool { return inTest[i] }),
	}
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
