package tcam

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"tcam/internal/api"
	"tcam/internal/client"
	"tcam/internal/cuboid"
	"tcam/internal/shard"
	"tcam/internal/testfixture"
)

// doors asks the same query at every door of the serving tier: GET
// /recommend on a monolith, one /recommend/batch entry, /shard/query on
// the (full-window) monolith, GET /recommend on a 2-shard coordinator,
// and the tcam.Recommender facade.
type doors struct {
	*tier
	monoC, coC *client.Client
	rec        *Recommender
}

func openDoors(t *testing.T, cacheEntries int) *doors {
	t.Helper()
	b := testfixture.Serving(t)
	d := &doors{tier: startDoors(t, b, cacheEntries), rec: newRecommender(b)}
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
	var partial doorAnswer
	if code == http.StatusOK {
		var p api.ShardPartial
		if err := json.Unmarshal([]byte(raw), &p); err != nil {
			t.Fatal(err)
		}
		partial.recs = []api.Recommendation{}
		for _, r := range p.Results {
			partial.recs = append(partial.recs, api.Recommendation{Item: r.Name, Score: r.Score})
		}
	} else {
		var e api.ErrorResponse
		if err := json.Unmarshal([]byte(raw), &e); err != nil {
			t.Fatal(err)
		}
		partial = doorAnswer{status: code, msg: e.Error}
	}
	out["shard"] = partial

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

// doorQueries is every query shape the doors must agree on.
var doorQueries = []api.Query{
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

// TestSameQueryEveryDoor: one query path means one answer. For every
// query shape the doors agree item-for-item and bit-for-bit on scores,
// with the result caches off and on (asked twice, so the second answer
// is a cache hit wherever there is a cache).
func TestSameQueryEveryDoor(t *testing.T) {
	queries := doorQueries
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

// TestCachedShardsAnswerLikeTheMonolith: the sharded tier caches at its
// shards, where a cached answer's epoch is the generation that computed
// it. A coordinator over two cached shards therefore says what the
// monolith says — byte for byte up to the work counter, which it sums
// over its shards — with every entry warm, on the very next request
// after the servers reload another bundle (where a cache of merged
// answers would still hold the old one), and, degraded, what the
// surviving shard alone says once the other is down.
func TestCachedShardsAnswerLikeTheMonolith(t *testing.T) {
	d := startDoors(t, testfixture.Serving(t), 256)
	get := func(base string, q api.Query) string {
		t.Helper()
		code, body := fetch(t, base+"/recommend?"+q.Form(), "")
		if code != http.StatusOK {
			t.Fatalf("%s %+v: %d %s", base, q, code, body)
		}
		return body
	}
	ranking := func(body string) string {
		t.Helper()
		head, _, ok := strings.Cut(body, `,"items_examined":`)
		if !ok {
			t.Fatalf("no work counter in %s", body)
		}
		return head
	}
	agree := func(stage string) []string {
		t.Helper()
		var answers []string
		for _, q := range doorQueries {
			want := ranking(get(d.mono, q))
			for round := 0; round < 2; round++ { // the second is a hit at both shards
				if got := ranking(get(d.coord, q)); got != want {
					t.Errorf("%s, round %d, %+v: coordinator answered\n%s\nmonolith\n%s", stage, round, q, got, want)
				}
			}
			answers = append(answers, want)
		}
		return answers
	}
	boot := agree("boot generation")

	data := cuboid.NewBuilder(6, 3, 12) // Serving's shape, other interactions
	for u := 0; u < 6; u++ {
		for iv := 0; iv < 3; iv++ {
			data.MustAdd(u, iv, (u*3+iv*2)%12, 1)
			data.MustAdd(u, iv, (iv*5+1)%12, 1)
		}
	}
	next := testfixture.BundleOf(t, data.Build(), 3, 0)
	next.Items[4], next.Items[9] = "c++", "100%41"
	for _, s := range d.servers {
		if _, err := s.Reload(next); err != nil {
			t.Fatal(err)
		}
	}
	for i, answer := range agree("first requests after the reload") {
		if answer == boot[i] {
			t.Errorf("%+v: the two bundles answer alike; a stale answer would be invisible", doorQueries[i])
		}
	}

	d.shards[1].Close()
	down := shard.Partition(len(next.Items), 2)[1]
	for _, q := range doorQueries {
		alone := get(d.shards[0].URL, q)
		want := strings.TrimSuffix(alone, "}") + fmt.Sprintf(`,"degraded":true,"missing_item_ranges":[{"lo":%d,"hi":%d}]}`, down.Lo, down.Hi)
		for round := 0; round < 2; round++ {
			if got := get(d.coord, q); got != want {
				t.Errorf("shard 1 down, round %d, %+v: coordinator answered\n%s\nwant the surviving shard's\n%s", round, q, got, want)
			}
		}
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
