package tcam

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"tcam/internal/api"
	"tcam/internal/cuboid"
	"tcam/internal/dataset"
	"tcam/internal/ingest"
	"tcam/internal/server"
	"tcam/internal/testfixture"
)

// badEvents is every way an event can break the one rule,
// ingest.Record.Validate: a score that is not positive or is above
// cuboid.MaxScore (cuboid.CheckScore), or a missing name. None of their names is one
// the serving fixture knows.
var badEvents = []struct {
	name string
	rec  ingest.Record
}{
	{"NaN score", ingest.Record{User: "user-bad", Item: "item-bad", Time: 106, Score: math.NaN()}},
	{"+Inf score", ingest.Record{User: "user-bad", Item: "item-bad", Time: 106, Score: math.Inf(1)}},
	{"-Inf score", ingest.Record{User: "user-bad", Item: "item-bad", Time: 106, Score: math.Inf(-1)}},
	{"zero score", ingest.Record{User: "user-bad", Item: "item-bad", Time: 106, Score: 0}},
	{"negative score", ingest.Record{User: "user-bad", Item: "item-bad", Time: 106, Score: -1}},
	{"score above the bound", ingest.Record{User: "user-bad", Item: "item-bad", Time: 106, Score: 1e308}},
	{"empty user", ingest.Record{User: "", Item: "item-bad", Time: 106, Score: 1}},
	{"empty item", ingest.Record{User: "user-bad", Item: "", Time: 106, Score: 1}},
}

// TestSameEventEveryDoor: an event is valid by one rule wherever it
// enters. Each bad event is refused by Record.Validate, by the facade's
// Dataset.Add (and the dataset around it saves and loads back), by
// JSONL loading, by Log.Append and — its score alone — by
// cuboid.Delta.Add; and a CRC-valid frame of it that another writer put
// in the log is skipped by the updater with a warning naming its
// offset, while the records on either side publish.
func TestSameEventEveryDoor(t *testing.T) {
	before := ingest.Record{User: "user-late", Item: "item-3", Time: 105, Score: 2}
	after := ingest.Record{User: "user-late", Item: "item-5", Time: 112, Score: 1}
	for _, tc := range badEvents {
		t.Run(tc.name, func(t *testing.T) {
			bad := tc.rec
			if err := bad.Validate(); err == nil {
				t.Error("Record.Validate accepted it")
			}

			d := NewDataset()
			if err := d.Add(before.User, before.Item, before.Time, before.Score); err != nil {
				t.Fatal(err)
			}
			if err := d.Add(bad.User, bad.Item, bad.Time, bad.Score); err == nil {
				t.Error("Dataset.Add accepted it")
			}
			path := filepath.Join(t.TempDir(), "d.jsonl")
			if err := d.SaveJSONLFile(path); err != nil {
				t.Fatal(err)
			}
			back, err := LoadDataset(path)
			if err != nil {
				t.Fatalf("LoadDataset of what SaveJSONLFile wrote: %v", err)
			}
			if !reflect.DeepEqual(back.Events(), d.Events()) || !reflect.DeepEqual(back.Users.Names(), d.Users.Names()) ||
				!reflect.DeepEqual(back.Items.Names(), d.Items.Names()) {
				t.Errorf("the dataset loaded back differs from the one saved")
			}

			// NaN and ±Inf are no JSON numbers: refused at decode, the rest by Add.
			line := fmt.Sprintf(`{"user":%q,"item":%q,"time":%d,"score":%s}`,
				bad.User, bad.Item, bad.Time, strconv.FormatFloat(bad.Score, 'g', -1, 64))
			if _, err := dataset.ReadJSONL(strings.NewReader(line + "\n")); err == nil {
				t.Errorf("ReadJSONL accepted %s", line)
			}

			dir := t.TempDir()
			lg, err := ingest.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := lg.Append(before, bad); err == nil || lg.End() != 0 {
				t.Errorf("Append of a batch holding it = %v, End %d; want an error and nothing appended", err, lg.End())
			}

			scoreOK := cuboid.CheckScore(bad.Score) == nil
			if err := cuboid.NewDelta(1, 1, 1).Add(0, 0, 0, bad.Score); (err == nil) != scoreOK {
				t.Errorf("Delta.Add(score %v) = %v, CheckScore says ok=%v", bad.Score, err, scoreOK)
			}

			if _, err := json.Marshal(bad); err != nil {
				return // no frame holds a NaN or ±Inf score that decodes (DESIGN.md §15)
			}
			var logs bytes.Buffer
			boot := testfixture.Bundle(t, 6, 12)
			srv, err := server.New(boot, server.WithLogger(slog.New(slog.NewTextHandler(&logs, nil))))
			if err != nil {
				t.Fatal(err)
			}
			up, err := server.NewUpdater(srv, lg, boot, server.UpdaterConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := lg.Append(before); err != nil {
				t.Fatal(err)
			}
			testfixture.AppendFrames(t, dir, bad)
			writer, err := ingest.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := writer.Append(after); err != nil {
				t.Fatal(err)
			}
			if published, err := up.Step(); err != nil || !published {
				t.Fatalf("Step = (%v, %v), want (true, nil)", published, err)
			}
			if !strings.Contains(logs.String(), `msg="ingest: skipping log record" offset=1 `) {
				t.Errorf("no warning of skipping offset 1:\n%s", logs.String())
			}
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
			var h api.Health
			if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
				t.Fatal(err)
			}
			if h.Users != 7 || h.Items != 12 || h.Ingest == nil || h.Ingest.LogOffset != 3 {
				t.Errorf("serving %d users, %d items at %+v; want 7, 12 at log offset 3: the skipped record left a name behind, or the cycle stopped",
					h.Users, h.Items, h.Ingest)
			}
		})
	}
}
