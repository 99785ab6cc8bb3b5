package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"tcam/internal/api"
)

// shardServer builds a testServer bundle served over the [lo, hi) item
// window.
func shardServer(t *testing.T, lo, hi int) (*Server, func(path string, body interface{}) (*http.Response, []byte)) {
	t.Helper()
	_, bundle := testServer(t)
	srv, err := New(bundle, WithItemRange(lo, hi))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	post := func(path string, body interface{}) (*http.Response, []byte) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf [1 << 16]byte
		n, _ := resp.Body.Read(buf[:])
		return resp, buf[:n]
	}
	return srv, post
}

func TestWithItemRangeRejectsBadWindows(t *testing.T) {
	_, bundle := testServer(t)
	for _, w := range [][2]int{{-1, 5}, {4, 4}, {8, 4}, {0, 13}} {
		if _, err := New(bundle, WithItemRange(w[0], w[1])); err == nil {
			t.Errorf("New accepted item window %v over a 12-item catalog", w)
		}
	}
	if _, err := New(bundle, WithItemRange(0, 12)); err != nil {
		t.Errorf("New rejected the full-catalog window: %v", err)
	}
}

// A shard's /shard/query must return exactly the monolithic results
// restricted to its window: same global item indices, bit-identical
// scores (they survive the JSON round trip), and the window + version
// metadata a coordinator merges by.
func TestShardQueryMatchesMonolithicWindow(t *testing.T) {
	mono, bundle := testServer(t)
	sn := mono.snapshot()
	_, post := shardServer(t, 4, 12)

	req := api.Query{User: "user-3", Time: 115, K: 6}
	resp, body := post("/shard/query", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got api.ShardPartial
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.ItemLo != 4 || got.ItemHi != 12 || got.Version != 1 || got.Interval != 1 {
		t.Fatalf("metadata = %+v, want window [4,12) version 1 interval 1", got)
	}

	// Reference: the monolithic index with items outside [4,12) excluded.
	u, _ := sn.users.Lookup("user-3")
	want, _ := sn.idx.Query(bundle.Scorer(), u, got.Interval, 6, func(v int) bool { return v < 4 })
	if len(got.Results) != len(want) {
		t.Fatalf("got %d results, want %d", len(got.Results), len(want))
	}
	for i, res := range got.Results {
		if res.Item != want[i].Item || res.Score != want[i].Score {
			t.Errorf("result %d = {%d %q %v}, want {%d %v}",
				i, res.Item, res.Name, res.Score, want[i].Item, want[i].Score)
		}
		if res.Name != bundle.Items[want[i].Item] {
			t.Errorf("result %d name = %q, want %q", i, res.Name, bundle.Items[want[i].Item])
		}
	}
}

func TestShardQueryHonorsExcludes(t *testing.T) {
	_, post := shardServer(t, 0, 6)
	req := api.Query{User: "user-1", Time: 105, K: 10}
	_, body := post("/shard/query", req)
	var full api.ShardPartial
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	if len(full.Results) == 0 {
		t.Fatal("window [0,6) returned no results")
	}
	banned := full.Results[0].Name
	req.Exclude = []string{banned}
	_, body = post("/shard/query", req)
	var filtered api.ShardPartial
	if err := json.Unmarshal(body, &filtered); err != nil {
		t.Fatal(err)
	}
	for _, res := range filtered.Results {
		if res.Name == banned {
			t.Fatalf("excluded item %q still in results", banned)
		}
	}
}

func TestShardHealthReportsWindowAndReloadKeepsIt(t *testing.T) {
	srv, post := shardServer(t, 4, 12)
	resp, body := post("/shard/query", api.Query{User: "user-0", Time: 100})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard query: status %d: %s", resp.StatusCode, body)
	}

	_, hbody := get(t, srv, "/healthz")
	var h api.Health
	if err := json.Unmarshal(hbody, &h); err != nil {
		t.Fatal(err)
	}
	if h.ItemRange == nil || h.ItemRange.Lo != 4 || h.ItemRange.Hi != 12 {
		t.Fatalf("health item_range = %+v, want [4,12)", h.ItemRange)
	}

	// A hot reload must rebuild the same window.
	_, bundle := testServer(t)
	if _, err := srv.Reload(bundle); err != nil {
		t.Fatal(err)
	}
	if lo, hi := srv.snapshot().idx.ItemRange(); lo != 4 || hi != 12 {
		t.Fatalf("post-reload index window = [%d,%d), want [4,12)", lo, hi)
	}

	// Monolithic mode reports no window at all.
	mono, _ := testServer(t)
	_, mbody := get(t, mono, "/healthz")
	var mh api.Health
	if err := json.Unmarshal(mbody, &mh); err != nil {
		t.Fatal(err)
	}
	if mh.ItemRange != nil {
		t.Fatalf("monolithic health item_range = %+v, want absent", mh.ItemRange)
	}
}
