package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"tcam/internal/api"
	"tcam/internal/dataset"
)

// readWorkload decodes a JSONL query-workload file.
func readWorkload(t *testing.T, path string) []api.Query {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []api.Query
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var q api.Query
		if err := json.Unmarshal(sc.Bytes(), &q); err != nil {
			t.Fatalf("line %d: %v", len(out)+1, err)
		}
		out = append(out, q)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunQueriesEmitsWorkload: -queries produces a JSONL workload whose
// user names come from the generated dataset's catalog, whose
// timestamps lie in the dataset's time span, and whose hottest user is
// one of the dataset's most active — all deterministic per qseed.
func TestRunQueriesEmitsWorkload(t *testing.T) {
	dir := t.TempDir()
	ds := filepath.Join(dir, "events.jsonl")
	if err := run("digg", ds, 3, 40, 60, 15, false, 256, "", queryConfig{}); err != nil {
		t.Fatal(err)
	}
	log, err := dataset.LoadJSONLFile(ds)
	if err != nil {
		t.Fatal(err)
	}
	tmin, tmax, _ := log.TimeSpan()

	out := filepath.Join(dir, "load.jsonl")
	qc := queryConfig{n: 500, seed: 7, k: 5, maxExclude: 3, userExp: 1.2, itemExp: 1.1}
	if err := run("digg", out, 3, 40, 60, 15, false, 256, "", qc); err != nil {
		t.Fatal(err)
	}
	queries := readWorkload(t, out)
	if len(queries) != 500 {
		t.Fatalf("workload has %d queries, want 500", len(queries))
	}
	counts := map[string]int{}
	for i, q := range queries {
		if _, ok := log.Users.Lookup(q.User); !ok {
			t.Fatalf("query %d names unknown user %q", i, q.User)
		}
		if q.Time < tmin || q.Time > tmax {
			t.Fatalf("query %d time %d outside dataset span [%d, %d]", i, q.Time, tmin, tmax)
		}
		if q.K != 5 {
			t.Fatalf("query %d k = %d, want 5", i, q.K)
		}
		if len(q.Exclude) > 3 {
			t.Fatalf("query %d exclude list too long: %v", i, q.Exclude)
		}
		for _, id := range q.Exclude {
			if _, ok := log.Items.Lookup(id); !ok {
				t.Fatalf("query %d excludes unknown item %q", i, id)
			}
		}
		counts[q.User]++
	}
	// Zipf rank 0 maps onto the most active user, so the workload's
	// hottest user must be among the dataset's top handful by events.
	var hottest string
	for u, c := range counts {
		if hottest == "" || c > counts[hottest] {
			hottest = u
		}
	}
	eventCounts := map[string]int{}
	for _, e := range log.Events() {
		eventCounts[log.UserID(e.User)]++
	}
	busier := 0
	for _, c := range eventCounts {
		if c > eventCounts[hottest] {
			busier++
		}
	}
	if busier > 5 {
		t.Errorf("workload's hottest user ranks %d by dataset activity, want top 5", busier+1)
	}

	// Determinism per qseed, against the same world.
	out2 := filepath.Join(dir, "load2.jsonl")
	if err := run("digg", out2, 3, 40, 60, 15, false, 256, "", qc); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(out)
	b2, _ := os.ReadFile(out2)
	if string(b1) != string(b2) {
		t.Error("same seeds produced different workloads")
	}

	// -dataset mode ranks from the saved JSONL and must agree with the
	// generated-world ranking (they describe the same events).
	out3 := filepath.Join(dir, "load3.jsonl")
	if err := run("digg", out3, 3, 40, 60, 15, false, 256, ds, qc); err != nil {
		t.Fatal(err)
	}
	b3, _ := os.ReadFile(out3)
	if string(b1) != string(b3) {
		t.Error("-dataset workload differs from generated-world workload over identical events")
	}
}

// TestRunQueriesDatasetErrors: query mode fails loudly on a missing
// dataset file and on an empty one.
func TestRunQueriesDatasetErrors(t *testing.T) {
	dir := t.TempDir()
	qc := queryConfig{n: 10, seed: 1, k: 5}
	if err := run("digg", filepath.Join(dir, "x"), 1, 0, 0, 0, false, 256, filepath.Join(dir, "nope.jsonl"), qc); err == nil {
		t.Error("run accepted a missing -dataset file")
	}
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("digg", filepath.Join(dir, "y"), 1, 0, 0, 0, false, 256, empty, qc); err == nil {
		t.Error("run accepted an event-free dataset for query synthesis")
	}
}
