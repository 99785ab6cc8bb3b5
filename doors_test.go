package tcam

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"tcam/internal/api"
	"tcam/internal/client"
	"tcam/internal/testfixture"
)

// doors asks the same query at every door of the serving tier: GET
// /recommend on a monolith, one /recommend/batch entry, /shard/query on
// the (full-window) monolith, GET /recommend on a 2-shard coordinator,
// and the tcam.Recommender facade.
type doors struct {
	mono, coord string
	monoC, coC  *client.Client
	rec         *Recommender
}

func openDoors(t *testing.T, cacheEntries int) *doors {
	t.Helper()
	b := testfixture.Serving(t)
	d := &doors{rec: newRecommender(b)}
	d.mono, d.coord = startDoors(t, b, cacheEntries)
	var err error
	if d.monoC, err = client.New(client.Config{BaseURL: d.mono, MaxRetries: -1}); err != nil {
		t.Fatal(err)
	}
	if d.coC, err = client.New(client.Config{BaseURL: d.coord, MaxRetries: -1}); err != nil {
		t.Fatal(err)
	}
	return d
}

// doorAnswer is what one door said: ranked items on success, otherwise
// the HTTP status (0 where the door has none) and the message.
type doorAnswer struct {
	recs   []api.Recommendation
	status int
	msg    string
}

func failed(err error) doorAnswer {
	var e *api.Error
	if errors.As(err, &e) {
		return doorAnswer{status: e.Status, msg: e.Msg}
	}
	return doorAnswer{msg: err.Error()}
}

// ask returns every door's answer to q, keyed by door name.
func (d *doors) ask(t *testing.T, q api.Query) map[string]doorAnswer {
	t.Helper()
	ctx := context.Background()
	out := make(map[string]doorAnswer)
	get := func(c *client.Client) doorAnswer {
		resp, err := c.Recommend(ctx, q.User, q.Time, q.K, q.Exclude)
		if err != nil {
			return failed(err)
		}
		return doorAnswer{recs: resp.Recommendations}
	}
	out["recommend"], out["coordinator"] = get(d.monoC), get(d.coC)

	batch, err := d.monoC.RecommendBatch(ctx, []api.Query{q})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	out["batch"] = doorAnswer{recs: batch.Results[0].Recommendations, msg: batch.Results[0].Error}

	body, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	code, raw := fetch(t, d.mono+"/shard/query", string(body))
	var shard doorAnswer
	if code == http.StatusOK {
		var p api.ShardPartial
		if err := json.Unmarshal([]byte(raw), &p); err != nil {
			t.Fatal(err)
		}
		shard.recs = []api.Recommendation{}
		for _, r := range p.Results {
			shard.recs = append(shard.recs, api.Recommendation{Item: r.Name, Score: r.Score})
		}
	} else {
		var e api.ErrorResponse
		if err := json.Unmarshal([]byte(raw), &e); err != nil {
			t.Fatal(err)
		}
		shard = doorAnswer{status: code, msg: e.Error}
	}
	out["shard"] = shard

	recs, err := d.rec.RecommendExcluding(q.User, q.Time, q.K, q.Exclude)
	facade := doorAnswer{recs: []api.Recommendation{}}
	if err != nil {
		facade = doorAnswer{msg: err.Error()}
	}
	for _, r := range recs {
		facade.recs = append(facade.recs, api.Recommendation{Item: r.ItemID, Score: r.Score})
	}
	out["facade"] = facade
	return out
}

// TestSameQueryEveryDoor: one query path means one answer. For every
// query shape the doors agree item-for-item and bit-for-bit on scores,
// with the result caches off and on (asked twice, so the second answer
// is a cache hit wherever there is a cache).
func TestSameQueryEveryDoor(t *testing.T) {
	queries := []api.Query{
		{User: "user-2", Time: 115},       // default k
		{User: "user-3", Time: 105, K: 4}, // explicit k
		{User: "user-2", Time: 115, K: 5, Exclude: []string{"item-6", "item-5", "item-6"}}, // duplicates
		{User: "user-2", Time: 115, K: 5, Exclude: []string{"bogus", "item-6", ""}},        // unknown names
		{User: "user-2", Time: 115, K: 12, Exclude: []string{"c++", "100%41"}},             // names a second decode would mangle
		{User: "user-0", Time: 50, K: 3},                                                   // before the grid: first interval
		{User: "user-0", Time: 100, K: 3},                                                  // first interval
		{User: "user-5", Time: 129, K: 3},                                                  // last interval
		{User: "user-5", Time: 9999, K: 3},                                                 // past the grid: last interval
	}
	want := make([][]api.Recommendation, len(queries))
	for _, cacheEntries := range []int{0, 256} {
		d := openDoors(t, cacheEntries)
		for round := 0; round < 2; round++ {
			for i, q := range queries {
				for door, got := range d.ask(t, q) {
					if got.msg != "" {
						t.Fatalf("cache=%d %+v at %s: %d %s", cacheEntries, q, door, got.status, got.msg)
					}
					if want[i] == nil {
						want[i] = got.recs
					}
					if !reflect.DeepEqual(got.recs, want[i]) {
						t.Errorf("cache=%d round %d %+v: %s answered\n%+v\nwant\n%+v",
							cacheEntries, round, q, door, got.recs, want[i])
					}
				}
			}
		}
	}
	if n := len(want[0]); n != api.DefaultK {
		t.Errorf("default k returned %d items, want %d", n, api.DefaultK)
	}
	for _, rec := range want[4] {
		if rec.Item == "c++" || rec.Item == "100%41" {
			t.Errorf("excluded item %q recommended", rec.Item)
		}
	}
	if reflect.DeepEqual(want[2], want[3]) || len(want[4]) != 10 {
		t.Errorf("fixture too weak: excludes do not change the answers")
	}
}

// TestSameErrorEveryDoor: a bad query fails the same way wherever it
// arrives — same status where the door has one, same message (a batch
// entry carries only the message; the facade prefixes its package).
func TestSameErrorEveryDoor(t *testing.T) {
	d := openDoors(t, 0)
	const badK = "k must be in [1,1000]"
	for _, tc := range []struct {
		q      api.Query
		status int
		msg    string
	}{
		{api.Query{User: "nobody", Time: 100}, http.StatusNotFound, `unknown user "nobody"`},
		{api.Query{Time: 100}, http.StatusNotFound, `unknown user ""`},
		{api.Query{User: "user-1", Time: 100, K: -1}, http.StatusBadRequest, badK},
		{api.Query{User: "user-1", Time: 100, K: 1001}, http.StatusBadRequest, badK},
	} {
		for door, got := range d.ask(t, tc.q) {
			want := doorAnswer{status: tc.status, msg: tc.msg}
			switch door {
			case "batch":
				want.status = 0
			case "facade":
				want = doorAnswer{msg: "tcam: " + tc.msg}
			case "recommend", "coordinator":
				if tc.q.K < 0 {
					continue // the client leaves a non-positive k off the GET form
				}
			}
			if got.status != want.status || got.msg != want.msg || got.recs != nil {
				t.Errorf("%+v at %s: got %d %q (%d recs), want %d %q", tc.q, door, got.status, got.msg, len(got.recs), want.status, want.msg)
			}
		}
	}
	// What only the GET form can say wrong: both GET doors parse it with
	// the one parser.
	for _, tc := range []struct{ form, msg string }{
		{"user=user-1&time=100&k=abc", badK},
		{"user=user-1&time=100&k=0", badK},
		{"user=user-1&time=100&k=-1", badK},
		{"user=user-1&time=100&k=99999", badK},
		{"user=user-1&time=abc", "time must be an integer timestamp in dataset ticks"},
		{"user=user-1", "time must be an integer timestamp in dataset ticks"},
	} {
		for _, base := range []string{d.mono, d.coord} {
			code, raw := fetch(t, base+"/recommend?"+tc.form, "")
			want := fmt.Sprintf(`{"error":%q}`, tc.msg)
			if code != http.StatusBadRequest || raw != want {
				t.Errorf("GET %s/recommend?%s: %d %s, want 400 %s", base, tc.form, code, raw, want)
			}
		}
	}
}
