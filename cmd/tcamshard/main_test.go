package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"tcam/internal/api"
	"tcam/internal/index"
	"tcam/internal/server"
	"tcam/internal/shard"
	"tcam/internal/testfixture"
)

// quiet is the logger tests hand run: records are built and dropped.
var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// startRun launches run in a goroutine and returns the bound address and
// the error channel; the listener is bound and signals are wired.
func startRun(t *testing.T, args ...string) (string, chan error) {
	t.Helper()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(append(args, "-addr", "127.0.0.1:0", "-drain-timeout", "5s"), quiet, func(addr string) { ready <- addr })
	}()
	select {
	case addr := <-ready:
		return addr, done
	case err := <-done:
		t.Fatalf("run exited before ready: %v", err)
		return "", nil
	}
}

// stopRun sends the process SIGTERM and waits for run to drain cleanly.
func stopRun(t *testing.T, done chan error) {
	t.Helper()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not drain after SIGTERM")
	}
}

func TestParseWindow(t *testing.T) {
	if lo, hi, err := parseWindow("3-9"); err != nil || lo != 3 || hi != 9 {
		t.Errorf(`parseWindow("3-9") = %d,%d,%v`, lo, hi, err)
	}
	for _, bad := range []string{"", "5", "a-b", "3-"} {
		if _, _, err := parseWindow(bad); err == nil {
			t.Errorf("parseWindow(%q) accepted", bad)
		}
	}
}

func TestParseShards(t *testing.T) {
	cfgs, err := parseShards("http://a=0-6,http://b=6-12", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 2 || cfgs[0].Items != (shard.Range{Lo: 0, Hi: 6}) || cfgs[1].BaseURL != "http://b" {
		t.Errorf("explicit windows parsed as %+v", cfgs)
	}

	cfgs, err = parseShards("http://a,http://b", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 2 || cfgs[0].Items != (shard.Range{Lo: 0, Hi: 5}) || cfgs[1].Items != (shard.Range{Lo: 5, Hi: 10}) {
		t.Errorf("auto partition parsed as %+v", cfgs)
	}

	for _, bad := range []struct {
		spec    string
		catalog int
	}{
		{"", 0},
		{"http://a,http://b=0-5", 10}, // mixed forms
		{"http://a,http://b", 0},      // bare entries, no catalog
		{"http://a=0-x", 0},
	} {
		if _, err := parseShards(bad.spec, bad.catalog); err == nil {
			t.Errorf("parseShards(%q, %d) accepted", bad.spec, bad.catalog)
		}
	}
}

// Shard mode with exactly the flags the frozen benchmark passes
// (bench/e2e.go) serves its window.
func TestBuildShardServesWindow(t *testing.T) {
	addr, done := startRun(t, "-mode", "shard", "-bundle", testfixture.Saved(t, 6, 5), "-items", "0-3")
	defer stopRun(t, done)
	resp, err := http.Post("http://"+addr+"/shard/query", "application/json",
		strings.NewReader(`{"user":"user2","time":3,"k":5}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard query status %d", resp.StatusCode)
	}
	var out struct {
		ItemLo  int `json:"item_lo"`
		ItemHi  int `json:"item_hi"`
		Results []struct {
			Item int `json:"item"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ItemLo != 0 || out.ItemHi != 3 {
		t.Errorf("window = [%d,%d), want [0,3)", out.ItemLo, out.ItemHi)
	}
	for _, r := range out.Results {
		if r.Item < 0 || r.Item >= 3 {
			t.Errorf("item %d outside the shard window", r.Item)
		}
	}
}

// The sharded tier caches at its shards: -cache-entries in shard mode is
// the server's result cache, so a repeated /shard/query is one miss and
// one hit in the shard's own /healthz.
func TestShardModeCachesItsAnswers(t *testing.T) {
	addr, done := startRun(t, "-mode", "shard", "-bundle", testfixture.Saved(t, 6, 5), "-items", "0-3", "-cache-entries", "64")
	defer stopRun(t, done)
	var answers [2]string
	for i := range answers {
		resp, err := http.Post("http://"+addr+"/shard/query", "application/json",
			strings.NewReader(`{"user":"user2","time":3,"k":5}`))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("shard query %d: status %d, %v", i, resp.StatusCode, err)
		}
		answers[i] = string(body)
	}
	if answers[0] != answers[1] {
		t.Errorf("the cached answer differs:\n%s\n%s", answers[0], answers[1])
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health api.Health
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if c := health.Cache; c == nil || c.Hits != 1 || c.Misses != 1 || c.Entries != 1 || c.Epoch != health.Version {
		t.Errorf("/healthz cache = %+v at version %d, want one miss, one hit, one entry in that epoch", c, health.Version)
	}
}

func TestBuildShardErrors(t *testing.T) {
	saved := testfixture.Saved(t, 6, 5)
	for name, args := range map[string][]string{
		"missing -bundle":           {"-mode", "shard", "-items", "0-3"},
		"missing -items":            {"-mode", "shard", "-bundle", saved},
		"window beyond the catalog": {"-mode", "shard", "-bundle", saved, "-items", "0-99"},
	} {
		if err := run(args, quiet, nil); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// End to end: a coordinator process (via run) in front of two live
// shard servers answers /recommend, and degrades when a shard dies.
func TestRunCoordinatorEndToEnd(t *testing.T) {
	bundlePath := testfixture.Saved(t, 6, 5)
	b, err := index.Load(bundlePath)
	if err != nil {
		t.Fatal(err)
	}
	ranges := shard.Partition(len(b.Items), 2)
	var spec []string
	var shardServers []*httptest.Server
	for _, r := range ranges {
		srv, err := server.New(b, server.WithItemRange(r.Lo, r.Hi))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()
		shardServers = append(shardServers, ts)
		spec = append(spec, fmt.Sprintf("%s=%d-%d", ts.URL, r.Lo, r.Hi))
	}

	addr, done := startRun(t, "-mode", "coordinator", "-shards", strings.Join(spec, ","), "-cache-entries", "0")

	fetch := func() (int, map[string]interface{}) {
		t.Helper()
		resp, err := http.Get("http://" + addr + "/recommend?user=user2&time=3&k=4")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]interface{}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	code, out := fetch()
	if code != http.StatusOK || out["degraded"] != nil {
		t.Fatalf("healthy fleet: status %d, body %v", code, out)
	}

	// Kill one shard: the same query degrades instead of failing.
	shardServers[1].Close()
	code, out = fetch()
	if code != http.StatusOK || out["degraded"] != true {
		t.Fatalf("one shard down: status %d, body %v", code, out)
	}

	stopRun(t, done)
}

func TestRunRejectsBadMode(t *testing.T) {
	if err := run([]string{"-mode", "banana"}, quiet, nil); err == nil {
		t.Error("bad mode accepted")
	}
	if err := run([]string{"-mode", "coordinator"}, quiet, nil); err == nil {
		t.Error("coordinator without shards accepted")
	}
	// A coordinator holds no cache; the flag's home is shard mode.
	err := run([]string{"-mode", "coordinator", "-shards", "http://a=0-6", "-cache-entries", "5"}, quiet, nil)
	if err == nil || !strings.Contains(err.Error(), "shard mode") {
		t.Errorf("coordinator with -cache-entries 5: err = %v, want one naming shard mode", err)
	}
}
