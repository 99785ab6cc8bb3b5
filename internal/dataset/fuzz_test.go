package dataset

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"tcam/internal/cuboid"
)

// gridderRecord is one event of a FuzzGridder input.
type gridderRecord struct {
	user, item int
	time       int64
	score      float64
}

// decodeGridder reads up to 256 records: the time as a signed varint
// step from the record before (from 0 for the first; int64 arithmetic
// wraps, so every time is reachable), a byte each for the user and the
// item, and a byte b for the score (b+1)/8. A truncated record ends the
// log.
func decodeGridder(data []byte) []gridderRecord {
	var recs []gridderRecord
	time := int64(0)
	for len(recs) < 256 {
		step, n := binary.Varint(data)
		if n <= 0 || len(data) < n+3 {
			return recs
		}
		time += step
		recs = append(recs, gridderRecord{user: int(data[n]), item: int(data[n+1]), time: time, score: float64(int(data[n+2])+1) / 8})
		data = data[n+3:]
	}
	return recs
}

// gridderSeed spells recs as a FuzzGridder input.
func gridderSeed(recs ...gridderRecord) []byte {
	var b []byte
	time := int64(0)
	for _, r := range recs {
		b = binary.AppendVarint(b, r.time-time)
		b = append(b, byte(r.user), byte(r.item), byte(r.score*8-1))
		time = r.time
	}
	return b
}

// FuzzGridder: whatever (time, score) sequence the bytes spell — times
// out of order, before the origin, at the ends of int64 — an Open that
// succeeds opens at most MaxOpenIntervals intervals, and one that is
// refused leaves the grid as it was. On the log in time order, a stream
// of single events through a Gridder refuses exactly when
// Interactions.Grid does, and otherwise ends on its grid and its cells.
func FuzzGridder(f *testing.F) {
	// TestGridIsStreamFromNothing's log: mostly forward, sometimes into
	// an older interval.
	r := rand.New(rand.NewSource(5))
	stream := []gridderRecord{{0, 0, 1000, 1}}
	now := int64(1000)
	for i := 0; i < 60; i++ {
		now += int64(r.Intn(9)) - 2
		stream = append(stream, gridderRecord{r.Intn(6 + i/10), r.Intn(8 + i/6), max(now, 1000), float64(1 + r.Intn(3))})
	}
	f.Add(int64(7), gridderSeed(stream...))
	// TestGridRefusesFarFutureEvent's logs: sampleLog with an event fifty
	// million intervals out; a 401-interval log out of time order; and the
	// stream that is refused one interval past MaxOpenIntervals, then
	// admitted there once the grid has grown towards it.
	f.Add(int64(10), gridderSeed(
		gridderRecord{0, 0, 0, 1}, gridderRecord{0, 1, 5, 1}, gridderRecord{1, 0, 12, 1},
		gridderRecord{1, 1, 12, 1}, gridderRecord{2, 2, 25, 1}, gridderRecord{0, 0, 25, 1},
		gridderRecord{0, 0, 5e8, 1}))
	f.Add(int64(10), gridderSeed(gridderRecord{0, 0, 0, 1}, gridderRecord{0, 0, 4000, 1}, gridderRecord{0, 0, 2000, 1}))
	edge := int64(100 + (3+MaxOpenIntervals)*10)
	var far []gridderRecord
	for _, time := range []int64{100, 120, edge, 100 + 5e8, math.MaxInt64, edge - 1, edge, 50} {
		far = append(far, gridderRecord{0, 0, time, 1})
	}
	f.Add(int64(10), gridderSeed(far...))
	f.Fuzz(func(t *testing.T, length int64, data []byte) {
		recs := decodeGridder(data)
		if length <= 0 || len(recs) == 0 {
			return
		}
		g := NewGridder(new(Vocab), new(Vocab), TimeGrid{Origin: recs[0].time, Length: length})
		for i, r := range recs {
			before := g.Grid
			if _, err := g.Open(r.time); err != nil && g.Grid != before {
				t.Fatalf("record %d (time %d): refused Open moved the grid %+v to %+v", i, r.time, before, g.Grid)
			} else if err == nil && g.Grid.Num-before.Num > MaxOpenIntervals {
				t.Fatalf("record %d (time %d): Open grew the grid %d → %d intervals", i, r.time, before.Num, g.Grid.Num)
			}
		}

		sort.SliceStable(recs, func(i, j int) bool { return recs[i].time < recs[j].time })
		d := New()
		for _, r := range recs {
			if err := d.Add(fmt.Sprint("u", r.user), fmt.Sprint("v", r.item), r.time, r.score); err != nil {
				t.Fatal(err)
			}
		}
		want, wantGrid, wantErr := d.Grid(length)
		users, items := new(Vocab), new(Vocab)
		g = NewGridder(users, items, TimeGrid{Origin: recs[0].time, Length: length})
		var err error
		for _, r := range recs {
			if _, err = g.Open(r.time); err != nil {
				break
			}
			if err = g.Add(Event{User: users.Intern(fmt.Sprint("u", r.user)), Item: items.Intern(fmt.Sprint("v", r.item)), Time: r.time, Score: r.score}); err != nil {
				t.Fatal(err)
			}
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("stream refused: %v; Interactions.Grid refused: %v", err, wantErr)
		}
		if err != nil {
			return
		}
		got, err := new(cuboid.Cuboid).ApplyDelta(g.Delta())
		if err != nil {
			t.Fatal(err)
		}
		if g.Grid != wantGrid {
			t.Fatalf("stream grid %+v, Interactions.Grid %+v", g.Grid, wantGrid)
		}
		if got.NumUsers() != want.NumUsers() || got.NumIntervals() != want.NumIntervals() || got.NumItems() != want.NumItems() ||
			!reflect.DeepEqual(got.Cells(), want.Cells()) {
			t.Fatalf("stream cells differ from Interactions.Grid's")
		}
	})
}
