package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"tcam/internal/api"
	"tcam/internal/index"
	"tcam/internal/ingest"
	"tcam/internal/server"
	"tcam/internal/shard"
	"tcam/internal/testfixture"
)

func TestQueryRun(t *testing.T) {
	bundle := testfixture.Saved(t, 8, 6)
	if err := run(bundle, "user3", 2, 3, ""); err != nil {
		t.Fatal(err)
	}
	if err := run(bundle, "user3", 2, 3, "item-0,item-1"); err != nil {
		t.Fatal(err)
	}
}

func TestQueryErrors(t *testing.T) {
	bundle := testfixture.Saved(t, 8, 6)
	if err := run("", "user3", 0, 3, ""); err == nil {
		t.Error("run accepted empty bundle path")
	}
	if err := run(bundle, "", 0, 3, ""); err == nil {
		t.Error("run accepted empty user")
	}
	if err := run(bundle, "nobody", 0, 3, ""); err == nil {
		t.Error("run accepted unknown user")
	}
	if err := run(filepath.Join(t.TempDir(), "missing"), "user3", 0, 3, ""); err == nil {
		t.Error("run accepted missing bundle")
	}
}

func TestQueryRunBatch(t *testing.T) {
	bundle := testfixture.Saved(t, 8, 6)
	if err := runBatch(bundle, "user3,user5,user0", 2, 3, ""); err != nil {
		t.Fatal(err)
	}
	if err := runBatch(bundle, "user3", 2, 3, "item-0,item-1"); err != nil {
		t.Fatal(err)
	}
}

// Remote mode runs the same queries through a live internal/server
// instance end to end: CLI → retrying client → HTTP → TA index.
func TestQueryRunRemote(t *testing.T) {
	b, err := index.Load(testfixture.Saved(t, 8, 6))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(b)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if err := runRemote(io.Discard, ts.URL, "user3", "", 2, 3, "", false); err != nil {
		t.Fatal(err)
	}
	if err := runRemote(io.Discard, ts.URL, "", "user3,user5,user0", 2, 3, "item-0", false); err != nil {
		t.Fatal(err)
	}
	if err := runRemote(io.Discard, ts.URL, "", "", 2, 3, "", false); err == nil {
		t.Error("runRemote accepted neither -user nor -users")
	}
	if err := runRemote(io.Discard, ts.URL, "nobody", "", 2, 3, "", false); err == nil {
		t.Error("runRemote accepted unknown user")
	}
	if err := runRemote(io.Discard, "", "user3", "", 2, 3, "", false); err == nil {
		t.Error("runRemote accepted empty server URL")
	}

	var buf bytes.Buffer
	if err := runRemote(&buf, ts.URL, "user3", "", 2, 3, "", true); err != nil {
		t.Fatal(err)
	}
	var res api.RecommendResponse
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("-json output is not a RecommendResponse: %v\n%s", err, buf.String())
	}
	if res.User != "user3" || len(res.Recommendations) == 0 || res.Degraded {
		t.Errorf("-json result: %+v", res)
	}
}

// A degraded coordinator answer must be flagged in the human output and
// carry the missing item ranges through -json untouched.
func TestQueryRunRemoteDegraded(t *testing.T) {
	b, err := index.Load(testfixture.Saved(t, 8, 6))
	if err != nil {
		t.Fatal(err)
	}
	ranges := shard.Partition(len(b.Items), 2)
	var cfgs []shard.ShardConfig
	var shardServers []*httptest.Server
	for _, r := range ranges {
		srv, err := server.New(b, server.WithItemRange(r.Lo, r.Hi))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()
		shardServers = append(shardServers, ts)
		cfgs = append(cfgs, shard.ShardConfig{BaseURL: ts.URL, Items: shard.Range{Lo: r.Lo, Hi: r.Hi}})
	}
	coord, err := shard.New(shard.Config{Shards: cfgs})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(coord)
	defer front.Close()
	shardServers[1].Close() // second item window goes dark

	var human bytes.Buffer
	if err := runRemote(&human, front.URL, "user3", "", 2, 3, "", false); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("[%d,%d)", ranges[1].Lo, ranges[1].Hi)
	if !strings.Contains(human.String(), "degraded") || !strings.Contains(human.String(), want) {
		t.Errorf("human output lacks the degraded warning with range %s:\n%s", want, human.String())
	}

	var raw bytes.Buffer
	if err := runRemote(&raw, front.URL, "user3", "", 2, 3, "", true); err != nil {
		t.Fatal(err)
	}
	var res api.RecommendResponse
	if err := json.Unmarshal(raw.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Error("-json output lost the degraded marker")
	}
	if len(res.MissingItemRanges) != 1 || res.MissingItemRanges[0] != (api.Range{Lo: ranges[1].Lo, Hi: ranges[1].Hi}) {
		t.Errorf("-json missing_item_ranges = %+v, want [%s]", res.MissingItemRanges, want)
	}
}

func TestQueryRunBatchErrors(t *testing.T) {
	bundle := testfixture.Saved(t, 8, 6)
	if err := runBatch("", "user3", 0, 3, ""); err == nil {
		t.Error("runBatch accepted empty bundle path")
	}
	if err := runBatch(bundle, "user3,nobody", 0, 3, ""); err == nil {
		t.Error("runBatch accepted unknown user")
	}
	if err := runBatch(filepath.Join(t.TempDir(), "missing"), "user3", 0, 3, ""); err == nil {
		t.Error("runBatch accepted missing bundle")
	}
}

// -health surfaces the snapshot version and, when the server tails an
// ingest log, the offset/lag/staleness triple operators watch.
func TestQueryRunHealth(t *testing.T) {
	b, err := index.Load(testfixture.Saved(t, 8, 6))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(b)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var out bytes.Buffer
	if err := runHealth(&out, ts.URL, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "snapshot version 1") || !strings.Contains(out.String(), "no ingest log attached") {
		t.Errorf("static-bundle health output:\n%s", out.String())
	}

	// Attach an updater and fold one event in: the ingest block appears.
	lg, err := ingest.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	up, err := server.NewUpdater(srv, lg, b, server.UpdaterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lg.Append(ingest.Record{User: "newcomer", Item: "item-2", Time: 1, Score: 1}); err != nil {
		t.Fatal(err)
	}
	if published, err := up.Step(); err != nil || !published {
		t.Fatalf("Step = (%v, %v)", published, err)
	}
	out.Reset()
	if err := runHealth(&out, ts.URL, false); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"snapshot version 2", "log offset 1 of 1 (lag 0)", "serving is current"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("health output lacks %q:\n%s", want, out.String())
		}
	}

	// -json emits the raw Health struct with the ingest block intact.
	out.Reset()
	if err := runHealth(&out, ts.URL, true); err != nil {
		t.Fatal(err)
	}
	var h api.Health
	if err := json.Unmarshal(out.Bytes(), &h); err != nil {
		t.Fatalf("-json output is not a Health: %v\n%s", err, out.String())
	}
	if h.Version != 2 || h.Ingest == nil || h.Ingest.LogOffset != 1 || h.Ingest.Lag != 0 {
		t.Errorf("-json health = %+v ingest=%+v", h, h.Ingest)
	}

	if err := runHealth(io.Discard, "", false); err == nil {
		t.Error("runHealth accepted empty server URL")
	}
}
