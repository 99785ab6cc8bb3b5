package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tcam/internal/api"
	"tcam/internal/dataset"
	"tcam/internal/index"
	"tcam/internal/server"
	"tcam/internal/testfixture"
)

func writeWorkloadFile(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "load.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadWorkload(t *testing.T) {
	path := writeWorkloadFile(t,
		`{"user":"user3","time":2,"k":4,"exclude":["item-0"]}`,
		``,
		`{"user":"user5"}`,
	)
	queries, err := loadWorkload(path, 9, 7, []string{"item-1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) != 2 {
		t.Fatalf("got %d queries, want 2 (blank line skipped)", len(queries))
	}
	if q := queries[0]; q.User != "user3" || q.Time != 2 || q.K != 4 || len(q.Exclude) != 1 || q.Exclude[0] != "item-0" {
		t.Errorf("explicit record mangled: %+v", q)
	}
	// A record's missing time/k/exclude default from the flags.
	if q := queries[1]; q.User != "user5" || q.Time != 9 || q.K != 7 || len(q.Exclude) != 1 || q.Exclude[0] != "item-1" {
		t.Errorf("defaults not applied: %+v", q)
	}
}

func TestLoadWorkloadErrors(t *testing.T) {
	if _, err := loadWorkload(filepath.Join(t.TempDir(), "nope.jsonl"), 0, 10, nil); err == nil {
		t.Error("loadWorkload accepted a missing file")
	}
	if _, err := loadWorkload(writeWorkloadFile(t, `not json`), 0, 10, nil); err == nil {
		t.Error("loadWorkload accepted malformed JSON")
	}
	if _, err := loadWorkload(writeWorkloadFile(t, `{"time":3}`), 0, 10, nil); err == nil {
		t.Error("loadWorkload accepted a record without a user")
	}
	if _, err := loadWorkload(writeWorkloadFile(t, ``), 0, 10, nil); err == nil {
		t.Error("loadWorkload accepted an empty workload")
	}
}

// `-users @file` runs the workload as one batch in both modes; each
// record keeps its own time and k.
func TestRunBatchAndRemoteFromWorkloadFile(t *testing.T) {
	bundlePath := testfixture.Saved(t, 8, 6)
	path := writeWorkloadFile(t,
		`{"user":"user3","time":2,"k":3}`,
		`{"user":"user5","time":4,"k":2,"exclude":["item-0"]}`,
	)
	if err := runBatch(bundlePath, "@"+path, 0, 10, ""); err != nil {
		t.Fatal(err)
	}
	if err := runBatch(bundlePath, "@"+filepath.Join(t.TempDir(), "gone"), 0, 10, ""); err == nil {
		t.Error("runBatch accepted a missing workload file")
	}

	b, err := index.Load(bundlePath)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(b)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var buf bytes.Buffer
	if err := runRemote(&buf, ts.URL, "", "@"+path, 0, 10, "", true); err != nil {
		t.Fatal(err)
	}
	var batch api.BatchResponse
	if err := json.Unmarshal(buf.Bytes(), &batch); err != nil {
		t.Fatalf("-json output is not a BatchResult: %v\n%s", err, buf.String())
	}
	if len(batch.Results) != 2 || batch.Results[0].User != "user3" || batch.Results[1].User != "user5" {
		t.Fatalf("batch results: %+v", batch.Results)
	}
	if got := len(batch.Results[1].Recommendations); got != 2 {
		t.Errorf("record-level k ignored: %d results, want 2", got)
	}
	if err := runRemote(io.Discard, ts.URL, "", "@"+filepath.Join(t.TempDir(), "gone"), 0, 10, "", false); err == nil {
		t.Error("runRemote accepted a missing workload file")
	}
}

// -health against a cache-enabled server prints the hit/miss line and
// the precompute line once a publish warmed users.
func TestRunHealthPrintsCache(t *testing.T) {
	b, err := index.Load(testfixture.Saved(t, 8, 6))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(b, server.WithCache(128), server.WithHotPrecompute(2))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// One miss then one hit, then a reload to trigger precompute.
	for i := 0; i < 2; i++ {
		if err := runRemote(io.Discard, ts.URL, "user3", "", 2, 3, "", false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.Reload(b); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runHealth(&out, ts.URL, false); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cache: 1 hits / 1 misses (50.0% hit rate)", "epoch 2", "precomputed 1 hot users"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("health output lacks %q:\n%s", want, out.String())
		}
	}
}

// What `tcamgen -queries` writes, loadWorkload reads back name for name
// — both sides speak api.Query — including user and item ids that a
// query string or a comma-separated flag could not carry.
func TestLoadWorkloadReadsTcamgenOutput(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH to build tcamgen with")
	}
	dir := t.TempDir()
	gen := filepath.Join(dir, "tcamgen")
	if out, err := exec.Command(goBin, "build", "-o", gen, "tcam/cmd/tcamgen").CombinedOutput(); err != nil {
		t.Fatalf("go build tcamgen: %v\n%s", err, out)
	}
	users := []string{"a,b", "100%41", "c++", `say "hi"`}
	items := []string{"x,y", "50%25", "q+r", "plain"}
	log := dataset.New()
	for i, u := range users {
		for j, v := range items {
			if err := log.Add(u, v, int64(1+i+j), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	ds, load := filepath.Join(dir, "events.jsonl"), filepath.Join(dir, "load.jsonl")
	if err := log.SaveJSONLFile(ds); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(gen, "-dataset", ds, "-out", load,
		"-queries", "200", "-qseed", "3", "-k", "4", "-max-exclude", "3").CombinedOutput(); err != nil {
		t.Fatalf("tcamgen -queries: %v\n%s", err, out)
	}
	queries, err := loadWorkload(load, 0, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) != 200 {
		t.Fatalf("read %d queries, want 200", len(queries))
	}
	seen := make(map[string]bool)
	for i, q := range queries {
		if !slices.Contains(users, q.User) || q.K != 4 || q.Time < 1 || q.Time > 7 {
			t.Fatalf("query %d came back mangled: %+v", i, q)
		}
		seen[q.User] = true
		for _, id := range q.Exclude {
			if !slices.Contains(items, id) {
				t.Fatalf("query %d excludes %q, not an item of the dataset", i, id)
			}
			seen[id] = true
		}
	}
	for _, id := range append(users, items...) {
		if !seen[id] {
			t.Errorf("id %q never survived the round trip", id)
		}
	}
}
