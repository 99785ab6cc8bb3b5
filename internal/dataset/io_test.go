package dataset

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJSONLRoundtrip(t *testing.T) {
	d := sampleLog(t)
	var buf bytes.Buffer
	if err := d.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameLog(t, d, got)
}

func assertSameLog(t *testing.T, want, got *Interactions) {
	t.Helper()
	if got.NumUsers() != want.NumUsers() || got.NumItems() != want.NumItems() || got.NumEvents() != want.NumEvents() {
		t.Fatalf("roundtrip counts = (%d,%d,%d), want (%d,%d,%d)",
			got.NumUsers(), got.NumItems(), got.NumEvents(),
			want.NumUsers(), want.NumItems(), want.NumEvents())
	}
	for i, e := range want.Events() {
		g := got.Events()[i]
		if want.UserID(e.User) != got.UserID(g.User) || want.ItemID(e.Item) != got.ItemID(g.Item) ||
			e.Time != g.Time || e.Score != g.Score {
			t.Fatalf("event %d differs: %+v vs %+v", i, e, g)
		}
	}
}

func TestReadJSONLErrors(t *testing.T) {
	tests := []struct {
		name  string
		input string
	}{
		{"malformed json", "{not json\n"},
		{"empty user", `{"user":"","item":"x","time":1,"score":1}` + "\n"},
		{"bad score", `{"user":"u","item":"x","time":1,"score":0}` + "\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadJSONL(strings.NewReader(tt.input)); err == nil {
				t.Error("ReadJSONL accepted malformed input")
			}
		})
	}
	// Blank lines are tolerated.
	d, err := ReadJSONL(strings.NewReader("\n" + `{"user":"u","item":"x","time":1,"score":1}` + "\n\n"))
	if err != nil || d.NumEvents() != 1 {
		t.Errorf("blank-line tolerance: events=%d err=%v", d.NumEvents(), err)
	}
}

func TestJSONLFileRoundtrip(t *testing.T) {
	d := sampleLog(t)
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := d.SaveJSONLFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJSONLFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameLog(t, d, got)
	if _, err := LoadJSONLFile(filepath.Join(t.TempDir(), "missing.jsonl")); err == nil {
		t.Error("LoadJSONLFile accepted a missing file")
	}
}
