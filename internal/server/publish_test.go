package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"tcam/internal/api"
	"tcam/internal/ingest"
)

// TestPublishBytesAreDelta: once a growing publish has laid the
// item-indexed tables out with room, a cycle that brings a handful of
// stream-born items and users allocates less than one f64 item-major
// table — where it used to allocate the index's two tables, every
// sorted list, the model's φ and φ′ and fold-in's transposes of them.
// Counted in bytes (runtime.MemStats.TotalAlloc around Step, collector
// off), so the regression cannot hide behind a noisy clock.
func TestPublishBytesAreDelta(t *testing.T) {
	boot := historyBoot(t)
	srv, err := New(boot)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := ingest.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	up, err := NewUpdater(srv, lg, boot, UpdaterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	when := boot.Grid.Origin + int64(boot.Grid.Num)*boot.Grid.Length
	step := func(cycle int) uint64 {
		var batch []ingest.Record
		for i := 0; i < 16; i++ { // 16 events: 8 boot users on fresh items, 8 fresh users on boot items
			rec := ingest.Record{User: boot.Users[(cycle*16+i)%len(boot.Users)], Item: fmt.Sprintf("fresh-%d-%d", cycle, i), Time: when + int64(cycle), Score: 1}
			if i%2 == 1 {
				rec.User, rec.Item = fmt.Sprintf("late-%d-%d", cycle, i), boot.Items[(cycle*16+i)%len(boot.Items)]
			}
			batch = append(batch, rec)
		}
		if _, err := lg.Append(batch...); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if published, err := up.Step(); err != nil || !published {
			t.Fatalf("Step = (%v, %v)", published, err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	table := uint64(8 * len(boot.Items) * boot.Scorer().NumTopics()) // the boot model's item-major table
	first := step(0)
	if first < table {
		t.Fatalf("the first growing publish allocated %d B, less than one %d B table: the fixture does not lay anything out", first, table)
	}
	for cycle := 1; cycle <= 4; cycle++ {
		if got := step(cycle); got >= table {
			t.Errorf("cycle %d: a publish of 8 new items and 8 new users allocated %d B, want less than one %d B item-major table (the first growing publish: %d B)",
				cycle, got, table, first)
		} else {
			t.Logf("cycle %d: %d B (table %d B, first growing publish %d B)", cycle, got, table, first)
		}
	}
}

// TestReadersDuringGrowingPublishes: readers query while nine
// generations are derived and published, each admitting stream-born
// items — the first lays the item-indexed tables out with room, the
// next eight are its storage one reslice longer. A boot user's answer
// at a boot interval cannot change (a new item scores zero there), so
// every response must carry the boot generation's recommendations; run
// under -race it also shows a derivation writes nothing that a
// published generation, whose arrays it shares, can see.
func TestReadersDuringGrowingPublishes(t *testing.T) {
	dir := t.TempDir()
	srv, up := updaterFixture(t, dir)
	recommendations := func(target string) (string, error) {
		w := serveHTTP(srv, http.MethodGet, target, "")
		var resp api.RecommendResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusOK {
			return "", fmt.Errorf("%s = %d %s (%v)", target, w.Code, w.Body, err)
		}
		return fmt.Sprint(resp.Recommendations), nil
	}
	targets, want := make([]string, 6), make([]string, 6)
	for u := range targets {
		targets[u] = fmt.Sprintf("/recommend?user=user-%d&time=115&k=5", u)
		var err error
		if want[u], err = recommendations(targets[u]); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if got, err := recommendations(targets[i%6]); err != nil || got != want[i%6] {
					t.Errorf("user-%d during a publish: %s (%v), the boot generation answered %s", i%6, got, err, want[i%6])
					return
				}
			}
		}(r)
	}
	for gen := 0; gen < 9; gen++ {
		appendEvents(t, dir,
			ingest.Record{User: "user-1", Item: fmt.Sprintf("fresh-%d", 2*gen), Time: 131 + int64(gen), Score: 1},
			ingest.Record{User: fmt.Sprintf("late-%d", gen), Item: fmt.Sprintf("fresh-%d", 2*gen+1), Time: 131 + int64(gen), Score: 2})
		if published, err := up.Step(); err != nil || !published {
			t.Fatalf("Step %d = (%v, %v)", gen, published, err)
		}
		if sn := srv.snapshot(); gen > 0 && sn.idx.ListsShared() == 0 {
			t.Errorf("generation %d laid every list out anew: the readers are not reading shared storage", gen)
		}
	}
	close(stop)
	wg.Wait()
}
