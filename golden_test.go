package tcam

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tcam/internal/client"
	"tcam/internal/index"
	"tcam/internal/server"
	"tcam/internal/shard"
	"tcam/internal/testfixture"
)

// tier is one bundle behind a monolithic server and behind a coordinator
// over two half-catalog shards.
type tier struct {
	mono, coord string             // base URLs
	servers     []*server.Server   // the monolith, then the shards in window order
	shards      []*httptest.Server // the shards' listeners, by window
}

// startDoors serves b as a tier whose monolith and shards each hold a
// result cache of cacheEntries entries (0 disables them).
func startDoors(tb testing.TB, b *index.Bundle, cacheEntries int) *tier {
	tb.Helper()
	serve := func(h http.Handler) *httptest.Server {
		ts := httptest.NewServer(h)
		tb.Cleanup(ts.Close)
		return ts
	}
	m, err := server.New(b, server.WithCache(cacheEntries))
	if err != nil {
		tb.Fatal(err)
	}
	d := &tier{mono: serve(m).URL, servers: []*server.Server{m}}
	cfg := shard.Config{
		ShardTimeout: 5 * time.Second,
		Hedger:       client.HedgerConfig{Default: 10 * time.Second},
	}
	for _, r := range shard.Partition(len(b.Items), 2) {
		s, err := server.New(b, server.WithItemRange(r.Lo, r.Hi), server.WithCache(cacheEntries))
		if err != nil {
			tb.Fatal(err)
		}
		d.servers, d.shards = append(d.servers, s), append(d.shards, serve(s))
		cfg.Shards = append(cfg.Shards, shard.ShardConfig{BaseURL: d.shards[len(d.shards)-1].URL, Items: r})
	}
	c, err := shard.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	d.coord = serve(c).URL
	return d
}

// fetch runs one request (POST when body is non-empty) and returns the
// status and the body minus its trailing newline.
func fetch(tb testing.TB, url, body string) (int, string) {
	tb.Helper()
	var resp *http.Response
	var err error
	if body == "" {
		resp, err = http.Get(url)
	} else {
		resp, err = http.Post(url, "application/json", strings.NewReader(body))
	}
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return resp.StatusCode, strings.TrimSuffix(string(raw), "\n")
}

// TestGoldenWireBytes pins the exact JSON of one healthy response per
// query door, over raw HTTP: the proof that the wire does not move.
func TestGoldenWireBytes(t *testing.T) {
	d := startDoors(t, testfixture.Serving(t), 0)
	mono, coord := d.mono, d.coord
	for _, tc := range []struct{ name, url, body, want string }{
		{"recommend", mono + "/recommend?user=user-2&time=115&k=3&exclude=item-6,bogus", "",
			`{"user":"user-2","interval":1,"recommendations":[{"item":"c++","score":0.5385153211941354},{"item":"item-5","score":0.10288519397770296},{"item":"100%41","score":0.06759050852527754}],"items_examined":4}`},
		{"batch", mono + "/recommend/batch",
			`{"queries":[{"user":"user-2","time":115,"k":2},{"user":"nobody","time":1},{"user":"user-2","time":125,"k":2,"exclude":["c++","item-6","c++"]}]}`,
			`{"results":[{"user":"user-2","interval":1,"recommendations":[{"item":"c++","score":0.5385153211941354},{"item":"item-6","score":0.13313798186467088}],"items_examined":2},{"user":"nobody","interval":0,"recommendations":null,"items_examined":0,"error":"unknown user \"nobody\""},{"user":"user-2","interval":2,"recommendations":[{"item":"item-8","score":0.4079490654414979},{"item":"item-5","score":0.07187577856315724}],"items_examined":2}]}`},
		{"shard", mono + "/shard/query", `{"user":"user-2","time":115,"k":3,"exclude":["c++"]}`,
			`{"user":"user-2","interval":1,"item_lo":0,"item_hi":12,"version":1,"results":[{"item":6,"name":"item-6","score":0.13313798186467088},{"item":5,"name":"item-5","score":0.10288519397770296},{"item":9,"name":"100%41","score":0.06759050852527754}],"items_examined":4}`},
		{"coordinator", coord + "/recommend?user=user-2&time=115&k=3&exclude=item-6,bogus", "",
			`{"user":"user-2","interval":1,"recommendations":[{"item":"c++","score":0.5385153211941354},{"item":"item-5","score":0.10288519397770296},{"item":"100%41","score":0.06759050852527754}],"items_examined":6}`},
	} {
		code, got := fetch(t, tc.url, tc.body)
		if code != http.StatusOK || got != tc.want {
			t.Errorf("%s: status %d, body\n%s\nwant\n%s", tc.name, code, got, tc.want)
		}
	}
}
