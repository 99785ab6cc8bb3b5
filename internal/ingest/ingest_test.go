package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"tcam/internal/faultinject"
)

func rec(i int) Record {
	return Record{
		User:  fmt.Sprintf("u%03d", i%7),
		Item:  fmt.Sprintf("v%03d", i%11),
		Time:  int64(i),
		Score: 1 + float64(i%3),
	}
}

func collect(t *testing.T, l *Log, from int64) []Record {
	t.Helper()
	var out []Record
	want := from
	if err := l.Replay(from, func(off int64, r Record) error {
		if off != want {
			t.Fatalf("replay offset %d, want %d", off, want)
		}
		want++
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if l.End() != 0 {
		t.Fatalf("fresh log End = %d, want 0", l.End())
	}
	var want []Record
	for i := 0; i < 25; i++ {
		want = append(want, rec(i))
	}
	end, err := l.Append(want[:10]...)
	if err != nil || end != 10 {
		t.Fatalf("Append = %d, %v; want 10, nil", end, err)
	}
	end, err = l.Append(want[10:]...)
	if err != nil || end != 25 {
		t.Fatalf("Append = %d, %v; want 25, nil", end, err)
	}
	got := collect(t, l, 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if tail := collect(t, l, 20); len(tail) != 5 || tail[0] != want[20] {
		t.Fatalf("Replay(20) returned %d records starting %+v", len(tail), tail[0])
	}
}

func TestReopenResumesOffsets(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := l.Append(rec(0), rec(1), rec(2)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	l2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if l2.End() != 3 {
		t.Fatalf("reopened End = %d, want 3", l2.End())
	}
	if _, err := l2.Append(rec(3)); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	got := collect(t, l2, 0)
	if len(got) != 4 || got[3] != rec(3) {
		t.Fatalf("after reopen got %d records, last %+v", len(got), got[len(got)-1])
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLimit(dir, 128) // tiny segments force rotation
	if err != nil {
		t.Fatalf("OpenLimit: %v", err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := l.Append(rec(i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	bases, err := segmentBases(dir)
	if err != nil {
		t.Fatalf("segmentBases: %v", err)
	}
	if len(bases) < 3 {
		t.Fatalf("expected >=3 segments after %d tiny appends, got %d", n, len(bases))
	}
	if got := collect(t, l, 0); len(got) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(got), n)
	}
	// Replay from an offset inside a later segment.
	mid := int64(n / 2)
	if got := collect(t, l, mid); len(got) != n-int(mid) || got[0] != rec(int(mid)) {
		t.Fatalf("Replay(%d) wrong: %d records, first %+v", mid, len(got), got[0])
	}
	// Reopen sees the same content.
	l2, err := OpenLimit(dir, 128)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if l2.End() != n {
		t.Fatalf("reopened End = %d, want %d", l2.End(), n)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := l.Append(rec(0), rec(1), rec(2)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	// Simulate a crash mid-append: a partial frame lands at the tail.
	path := filepath.Join(dir, segName(0))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	var torn [7]byte
	binary.LittleEndian.PutUint32(torn[:4], 400) // length promises more bytes than exist
	if _, err := f.Write(torn[:]); err != nil {
		t.Fatalf("write torn tail: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	l2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after torn tail: %v", err)
	}
	if l2.End() != 3 {
		t.Fatalf("End after recovery = %d, want 3", l2.End())
	}
	// The torn bytes are gone: appends resume cleanly.
	if _, err := l2.Append(rec(3)); err != nil {
		t.Fatalf("Append after recovery: %v", err)
	}
	got := collect(t, l2, 0)
	if len(got) != 4 || got[3] != rec(3) {
		t.Fatalf("after recovery got %d records, last %+v", len(got), got[len(got)-1])
	}
}

func TestMidLogCorruptionRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLimit(dir, 64) // force at least two segments
	if err != nil {
		t.Fatalf("OpenLimit: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(rec(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	bases, err := segmentBases(dir)
	if err != nil || len(bases) < 2 {
		t.Fatalf("need >=2 segments, got %d (err %v)", len(bases), err)
	}
	// Flip a byte in the FIRST segment: not explicable by a torn append.
	path := filepath.Join(dir, segName(bases[0]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	data[frameHdr+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := OpenLimit(dir, 64); err == nil {
		t.Fatal("Open accepted mid-log corruption")
	}
}

// TestDamageClassifiedTheSameEverywhere: one table of damaged segments,
// read through every door of the one frame walker. A three-segment,
// eleven-record log is damaged after a reader handle has replayed its
// first two records; then
//
//   - Refresh from that known end and a fresh Open must give the same
//     verdict: a torn tail (bytes at the end of the last segment that
//     are no frame — both stop in front of them, at the same record,
//     and only Open truncates) or corruption (anything else: an error);
//   - Replay from the reader's cursor delivers exactly the records up to
//     the end Refresh found;
//   - a handle that had already seen all eleven records calls any damage
//     below them corruption, wherever it lies: nothing it has counted
//     can still be an append in flight.
func TestDamageClassifiedTheSameEverywhere(t *testing.T) {
	const known, total = 2, 11
	flip := func(t *testing.T, dir string, base int64, frame int) {
		path := filepath.Join(dir, segName(base))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pos := 0
		for ; frame > 0; frame-- {
			if _, pos, _ = readFrame(raw, pos); pos == 0 {
				t.Fatalf("segment %d has no frame to flip", base)
			}
		}
		raw[pos+frameHdr+1] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	partial := func(t *testing.T, dir string, base int64) {
		f, err := os.OpenFile(filepath.Join(dir, segName(base)), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		var hdr [frameHdr + 3]byte
		binary.LittleEndian.PutUint32(hdr[:], 400) // promises more bytes than follow
		if _, err := f.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, dir string)
		end    int64 // where a torn tail leaves the log; -1: corruption
		seen   bool  // whether the handle that saw all records still replays them
	}{
		{"partial frame after the last record", func(t *testing.T, dir string) { partial(t, dir, 6) }, total, true},
		{"last frame cut short", func(t *testing.T, dir string) {
			st, err := os.Stat(filepath.Join(dir, segName(6)))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(filepath.Join(dir, segName(6)), st.Size()-3); err != nil {
				t.Fatal(err)
			}
		}, total - 1, false},
		{"byte flipped in the last frame", func(t *testing.T, dir string) { flip(t, dir, 6, 4) }, total - 1, false},
		{"byte flipped mid-way through the last segment", func(t *testing.T, dir string) { flip(t, dir, 6, 2) }, 8, false},
		{"byte flipped in a sealed segment", func(t *testing.T, dir string) { flip(t, dir, 3, 1) }, -1, false},
		{"byte flipped in the first record past the known end", func(t *testing.T, dir string) { flip(t, dir, 0, known) }, -1, false},
		{"partial frame at the end of a sealed segment", func(t *testing.T, dir string) { partial(t, dir, 0) }, -1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			const limit = 150 // three ~58-byte frames fill a segment
			writer, err := OpenLimit(dir, limit)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := writer.Append(rec(0), rec(1)); err != nil {
				t.Fatal(err)
			}
			reader, err := OpenLimit(dir, limit)
			if err != nil {
				t.Fatal(err)
			}
			sawAll, err := OpenLimit(dir, limit)
			if err != nil {
				t.Fatal(err)
			}
			collect(t, reader, 0) // leaves both cursors at the known end
			collect(t, sawAll, 0)
			for i := known; i < 6; i++ {
				if _, err := writer.Append(rec(i)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := writer.Append(rec(6), rec(7), rec(8), rec(9), rec(10)); err != nil {
				t.Fatal(err)
			}
			if bases, err := segmentBases(dir); err != nil || !reflect.DeepEqual(bases, []int64{0, 3, 6}) {
				t.Fatalf("segments %v (err %v), want [0 3 6]", bases, err)
			}
			if end, err := sawAll.Refresh(); err != nil || end != total {
				t.Fatalf("Refresh before the damage = (%d, %v)", end, err)
			}
			tc.damage(t, dir)

			count := func(l *Log) (int64, error) {
				var n int64
				err := l.Replay(known, func(off int64, r Record) error {
					if off != known+n || r != rec(int(off)) {
						t.Fatalf("replayed offset %d as %+v", off, r)
					}
					n++
					return nil
				})
				return n, err
			}
			end, err := reader.Refresh()
			if (err != nil) != (tc.end < 0) || (err == nil && end != tc.end) {
				t.Errorf("Refresh from the known end = (%d, %v), want end %d", end, err, tc.end)
			}
			if err == nil {
				if n, err := count(reader); err != nil || n != end-known {
					t.Errorf("Replay from the cursor after Refresh = (%d records, %v), want %d", n, err, end-known)
				}
			}
			if n, err := count(sawAll); (err == nil) != tc.seen || (err == nil && n != total-known) {
				t.Errorf("Replay by the handle that saw every record = (%d records, %v), want success %v", n, err, tc.seen)
			}
			opened, err := OpenLimit(dir, limit) // last: it truncates a torn tail
			if (err != nil) != (tc.end < 0) || (err == nil && opened.End() != tc.end) {
				t.Errorf("Open = (%v, %v), want end %d", opened, err, tc.end)
			}
			if err == nil {
				if got := collect(t, opened, 0); int64(len(got)) != tc.end {
					t.Errorf("after Open, Replay sees %d records, want %d", len(got), tc.end)
				}
			}
		})
	}
}

func TestAppendValidation(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, bad := range []Record{
		{User: "", Item: "v", Time: 1, Score: 1},
		{User: "u", Item: "", Time: 1, Score: 1},
		{User: "u", Item: "v", Time: 1, Score: 0},
		{User: "u", Item: "v", Time: 1, Score: -2},
	} {
		if _, err := l.Append(bad); err == nil {
			t.Fatalf("Append accepted invalid record %+v", bad)
		}
	}
	if l.End() != 0 {
		t.Fatalf("failed appends advanced End to %d", l.End())
	}
}

func TestAppendFaultInjection(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := l.Append(rec(0)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	injected := errors.New("disk on fire")
	faultinject.SetErr("ingest.append", faultinject.ErrorsN(1, injected))
	if _, err := l.Append(rec(1)); !errors.Is(err, injected) {
		t.Fatalf("Append under fault = %v, want injected error", err)
	}
	if l.End() != 1 {
		t.Fatalf("failed append advanced End to %d", l.End())
	}
	// The hook fails once; the retry lands and nothing was lost or doubled.
	if _, err := l.Append(rec(1)); err != nil {
		t.Fatalf("Append retry: %v", err)
	}
	got := collect(t, l, 0)
	if len(got) != 2 || got[0] != rec(0) || got[1] != rec(1) {
		t.Fatalf("after fault+retry got %v", got)
	}
}

func TestConcurrentAppends(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const workers, per = 8, 20
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := l.Append(rec(w*per + i)); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if l.End() != workers*per {
		t.Fatalf("End = %d, want %d", l.End(), workers*per)
	}
	seen := make(map[int64]bool)
	if err := l.Replay(0, func(off int64, r Record) error {
		if seen[off] {
			return fmt.Errorf("offset %d replayed twice", off)
		}
		seen[off] = true
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(seen) != workers*per {
		t.Fatalf("replayed %d records, want %d", len(seen), workers*per)
	}
}

// TestRefreshSeesExternalAppends: a tailing reader handle picks up
// records appended through a separate writer handle (the producer /
// server process split) only after Refresh.
func TestRefreshSeesExternalAppends(t *testing.T) {
	dir := t.TempDir()
	writer, err := Open(dir)
	if err != nil {
		t.Fatalf("Open writer: %v", err)
	}
	reader, err := Open(dir)
	if err != nil {
		t.Fatalf("Open reader: %v", err)
	}
	if _, err := writer.Append(rec(0), rec(1), rec(2)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if got := reader.End(); got != 0 {
		t.Fatalf("reader End before Refresh = %d, want 0 (stale view)", got)
	}
	end, err := reader.Refresh()
	if err != nil || end != 3 {
		t.Fatalf("Refresh = (%d, %v), want (3, nil)", end, err)
	}
	if got := collect(t, reader, 0); len(got) != 3 {
		t.Fatalf("replay after Refresh saw %d records, want 3", len(got))
	}
	// Refresh also repositions the reader's own append cursor.
	if _, err := reader.Append(rec(3)); err != nil {
		t.Fatalf("Append after Refresh: %v", err)
	}
	if _, err := writer.Refresh(); err != nil {
		t.Fatalf("writer Refresh: %v", err)
	}
	if got := collect(t, writer, 0); len(got) != 4 {
		t.Fatalf("writer replay saw %d records, want 4", len(got))
	}
}

// TestRefreshLeavesInFlightTailAlone: an incomplete trailing frame — a
// live writer's in-flight append — is invisible to Refresh but NOT
// truncated, so the writer can complete it.
func TestRefreshLeavesInFlightTailAlone(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := l.Append(rec(0), rec(1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	// Hand-write a partial frame: a header claiming 400 payload bytes
	// with only 3 present.
	path := filepath.Join(dir, segName(0))
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	partial := make([]byte, frameHdr+3)
	binary.LittleEndian.PutUint32(partial, 400)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(partial); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	end, err := l.Refresh()
	if err != nil || end != 2 {
		t.Fatalf("Refresh = (%d, %v), want (2, nil)", end, err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(full)+len(partial) {
		t.Fatalf("Refresh changed the segment size: %d -> %d bytes", len(full)+len(partial), len(after))
	}
	if got := collect(t, l, 0); len(got) != 2 {
		t.Fatalf("replay saw %d records, want 2", len(got))
	}
}

// TestRefreshRejectsRewrittenLog: a directory whose durable prefix
// shrank under a live handle is not a log anymore.
func TestRefreshRejectsRewrittenLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := l.Append(rec(0), rec(1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := os.Remove(filepath.Join(dir, segName(0))); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Refresh(); err == nil {
		t.Fatal("Refresh accepted a log whose records vanished")
	}
}

// TestRefreshResumesAcrossSegmentRoll: a tailing handle that refreshes
// after every append of a writer handle — through two segment rolls —
// sees exactly the writer's end each time, replays exactly the new
// records from where its previous Replay stopped, and ends in the state
// a fresh Open of the directory computes.
func TestRefreshResumesAcrossSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	const segBytes = 600 // a handful of records per segment
	writer, err := OpenLimit(dir, segBytes)
	if err != nil {
		t.Fatalf("Open writer: %v", err)
	}
	reader, err := OpenLimit(dir, segBytes)
	if err != nil {
		t.Fatalf("Open reader: %v", err)
	}
	var seen []Record
	for i := 0; i < 40; i += 2 {
		wend, err := writer.Append(rec(i), rec(i+1))
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		rend, err := reader.Refresh()
		if err != nil || rend != wend {
			t.Fatalf("Refresh after %d records = (%d, %v), want (%d, nil)", i+2, rend, err, wend)
		}
		fresh := collect(t, reader, int64(i))
		if len(fresh) != 2 || fresh[0] != rec(i) || fresh[1] != rec(i+1) {
			t.Fatalf("resumed replay from %d saw %+v", i, fresh)
		}
		seen = append(seen, fresh...)
	}
	bases, err := segmentBases(dir)
	if err != nil || len(bases) < 3 {
		t.Fatalf("the log never rolled: segments %v (%v)", bases, err)
	}
	reopened, err := OpenLimit(dir, segBytes)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if reader.head != reopened.head {
		t.Fatalf("refreshed handle at (end %d, seg %d, %d bytes), a fresh Open at (end %d, seg %d, %d bytes)",
			reader.head.off, reader.head.base, reader.head.pos, reopened.head.off, reopened.head.base, reopened.head.pos)
	}
	// A replay that does not start at the cursor — a retried cycle —
	// still reads from the segment's first frame.
	if all := collect(t, reader, 0); len(all) != len(seen) {
		t.Fatalf("full replay saw %d records, the resumed ones %d", len(all), len(seen))
	}
	if again := collect(t, reader, 36); len(again) != 4 || again[0] != rec(36) {
		t.Fatalf("replay from an earlier offset saw %+v", again)
	}
	// The refreshed handle can take over as the writer.
	if end, err := reader.Append(rec(40)); err != nil || end != 41 {
		t.Fatalf("Append through the refreshed handle = (%d, %v), want (41, nil)", end, err)
	}
}

// TestRefreshRejectsShrunkenSegment: the active segment losing bytes
// this handle already counted is corruption, not an empty refresh.
func TestRefreshRejectsShrunkenSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := l.Append(rec(0), rec(1), rec(2)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := os.Truncate(filepath.Join(dir, segName(0)), l.head.pos-5); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Refresh(); err == nil {
		t.Fatal("Refresh accepted an active segment shorter than its known end")
	}
	if l.End() != 3 {
		t.Fatalf("failed Refresh moved End to %d", l.End())
	}
}

// TestRefreshRejectsCorruptionPastKnownEnd: bytes appended since the
// last Refresh are CRC-checked like any other — a bad frame in a
// segment that has since been rolled over cannot be a torn tail.
func TestRefreshRejectsCorruptionPastKnownEnd(t *testing.T) {
	dir := t.TempDir()
	const segBytes = 600
	writer, err := OpenLimit(dir, segBytes)
	if err != nil {
		t.Fatalf("Open writer: %v", err)
	}
	reader, err := OpenLimit(dir, segBytes)
	if err != nil {
		t.Fatalf("Open reader: %v", err)
	}
	if _, err := writer.Append(rec(0), rec(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.Refresh(); err != nil {
		t.Fatal(err)
	}
	known := reader.head.pos
	for i := 2; i < 30; i++ { // rolls past segment 0
		if _, err := writer.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Flip a payload byte of the first frame the reader has not seen.
	path := filepath.Join(dir, segName(0))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[known+frameHdr+1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.Refresh(); err == nil {
		t.Fatal("Refresh accepted a corrupt frame in a sealed segment")
	}
}

// TestRefreshIdlePollDoesNotList: a poll that finds the active segment
// as long as it was, and no successor, reads no directory — shown by a
// stray name the listing rejects, which idle polls walk past and the
// first real change trips over. The fresh handle of an empty directory
// and a handle that has read everything are both idle.
func TestRefreshIdlePollDoesNotList(t *testing.T) {
	dir := t.TempDir()
	writer, err := Open(dir)
	if err != nil {
		t.Fatalf("Open writer: %v", err)
	}
	reader, err := Open(dir)
	if err != nil {
		t.Fatalf("Open reader: %v", err)
	}
	stray := filepath.Join(dir, segPrefix+"stray"+segSuffix)
	if err := os.WriteFile(stray, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if end, err := reader.Refresh(); err != nil || end != 0 {
		t.Fatalf("idle Refresh of an empty log = (%d, %v), want (0, nil)", end, err)
	}
	if err := os.Remove(stray); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Append(rec(0), rec(1)); err != nil {
		t.Fatal(err)
	}
	if end, err := reader.Refresh(); err != nil || end != 2 {
		t.Fatalf("Refresh = (%d, %v), want (2, nil)", end, err)
	}
	if err := os.WriteFile(stray, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if end, err := reader.Refresh(); err != nil || end != 2 {
			t.Fatalf("idle Refresh %d = (%d, %v), want (2, nil)", i, end, err)
		}
	}
	if _, err := writer.Append(rec(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.Refresh(); err == nil {
		t.Fatal("a Refresh with new bytes to read did not list the directory")
	}
}
