package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "a.inner", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestTracerLinksAndWrites(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", 0, 7)
	child := tr.begin("layer.call", root, 7)
	tr.end(child)
	tr.end(root)
	now := time.Now()
	tr.add("batch", 0, 8, now, now.Add(time.Microsecond), 1000)
	if d := tr.durations("batch", time.Nanosecond); len(d) != 1 || d[0] != 1 {
		t.Errorf("per-call duration of a batch span = %v, want [1]", d)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []span
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 3 || got[1].Parent != got[0].ID || got[1].Op != 7 || got[1].End < got[1].Start || got[2].N != 1000 {
		t.Errorf("spans read back: %+v", got)
	}
}
