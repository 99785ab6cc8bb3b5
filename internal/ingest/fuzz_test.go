package ingest

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// layout cuts data into up to three segments at cut1 and cut2 (each
// taken modulo len(data)+1; empty pieces are dropped) and names each by
// the whole frames before it — or, behind a segment that is not all
// whole frames, one past its predecessor's name, so no two collide.
func layout(data []byte, cut1, cut2 uint16) (segs [][]byte, bases []int64) {
	cuts := []int{int(cut1) % (len(data) + 1), int(cut2) % (len(data) + 1)}
	slices.Sort(cuts)
	var base int64
	for i, lo := range []int{0, cuts[0], cuts[1]} {
		hi := len(data)
		if i < len(cuts) {
			hi = cuts[i]
		}
		if hi <= lo {
			continue
		}
		if len(bases) > 0 {
			base = max(base, bases[len(bases)-1]+1)
		}
		segs, bases = append(segs, data[lo:hi]), append(bases, base)
		for pos := 0; pos < hi-lo; {
			_, next, ok := readFrame(data[lo:hi], pos)
			if !ok {
				break
			}
			base, pos = base+1, next
		}
	}
	return segs, bases
}

// frameRule is the classification the log promises, applied to segs
// directly: the payloads of the records the log holds, whether it is
// corrupt — some segment but the last is not all whole frames — and
// where the last segment's whole frames end. Bytes past that are a torn
// tail.
func frameRule(segs [][]byte) (payloads [][]byte, corrupt bool, tail int) {
	for i, seg := range segs {
		tail = 0
		for tail < len(seg) {
			payload, next, ok := readFrame(seg, tail)
			if !ok {
				break
			}
			payloads, tail = append(payloads, payload), next
		}
		if tail < len(seg) && i < len(segs)-1 {
			return nil, true, 0
		}
	}
	return payloads, false, tail
}

// FuzzSegments: whatever bytes a log's segments hold, a fresh handle's
// Refresh, Replay from 0 and Open classify them as frameRule does,
// without panicking. A torn tail is invisible to Refresh and truncated
// by Open; anything else that is no frame is refused by both. Replay
// delivers every frame up to the end found, in order: as Decode reads
// its payload, or, for a payload that does not decode, as a record
// Validate refuses with the decode error. No frame costs more than
// maxPayload bytes of allocation, whatever its length field claims.
func FuzzSegments(f *testing.F) {
	addLog := func(dir string) {
		bases, err := segmentBases(dir)
		if err != nil {
			f.Fatal(err)
		}
		var data []byte
		var cuts [2]uint16
		for i, base := range bases {
			seg, err := os.ReadFile(filepath.Join(dir, segName(base)))
			if err != nil {
				f.Fatal(err)
			}
			data = append(data, seg...)
			if i < len(cuts) {
				cuts[i] = uint16(len(data))
			}
		}
		f.Add(data, cuts[0], cuts[1])
	}
	// TestDamageClassifiedTheSameEverywhere's log, whole and damaged each
	// way.
	for i := -1; i < len(damages); i++ {
		dir := f.TempDir()
		writer, err := OpenLimit(dir, damageLimit)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := writer.Append(rec(0), rec(1)); err != nil {
			f.Fatal(err)
		}
		appendDamageLog(f, writer)
		if i >= 0 {
			damages[i].damage(f, dir)
		}
		addLog(dir)
	}
	// CRC-valid frames no Append writes: a payload that is not JSON
	// between two records, one that decodes to a record Validate
	// refuses, and a length field past maxPayload.
	frame := func(buf []byte, r Record) []byte {
		payload, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		return appendFrame(buf, payload)
	}
	notJSON := appendFrame(frame(nil, rec(0)), []byte("not json"))
	f.Add(frame(notJSON, rec(1)), uint16(0), uint16(0))
	f.Add(frame(frame(nil, rec(0)), Record{User: "u", Item: "v", Score: 0}), uint16(0), uint16(0))
	huge := binary.LittleEndian.AppendUint32(frame(nil, rec(0)), 1<<31)
	f.Add(append(huge, "{}"...), uint16(len(huge)), uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, cut1, cut2 uint16) {
		segs, bases := layout(data, cut1, cut2)
		payloads, corrupt, tail := frameRule(segs)
		want := make([]Record, len(payloads)) // zero where the payload does not decode
		decodes := make([]bool, len(payloads))
		for i, p := range payloads {
			r, err := Decode(p)
			if decodes[i] = err == nil; decodes[i] {
				want[i] = r
			}
		}
		dir := t.TempDir()
		reader, err := Open(dir) // fresh: it has seen no record
		if err != nil {
			t.Fatal(err)
		}
		for i, seg := range segs {
			if err := os.WriteFile(filepath.Join(dir, segName(bases[i])), seg, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		end, err := reader.Refresh()
		if (err != nil) != corrupt || (err == nil && end != int64(len(payloads))) {
			t.Fatalf("Refresh = (%d, %v); the frame rule finds %d records, corrupt %v", end, err, len(payloads), corrupt)
		}
		if corrupt {
			if _, err := Open(dir); err == nil {
				t.Fatal("Open accepted segments Refresh refuses")
			}
			return
		}
		replay := func(door string, l *Log) {
			n := 0
			err := l.Replay(0, func(off int64, r Record) error {
				if off != int64(n) || n >= len(want) {
					t.Fatalf("%s: Replay delivered %+v at offset %d, record %d of %d", door, r, off, n, len(want))
				}
				if decodes[n] && r != want[n] {
					t.Fatalf("%s: Replay delivered %+v at offset %d, Decode reads %+v", door, r, off, want[n])
				}
				if !decodes[n] && (r.User != "" || r.Item != "" || r.Time != 0 || r.Score != 0 ||
					r.Validate() == nil || !strings.Contains(r.Validate().Error(), "undecodable")) {
					t.Fatalf("%s: the undecodable frame at offset %d arrived as %+v, Validate: %v", door, off, r, r.Validate())
				}
				n++
				return nil
			})
			if n != len(want) || err != nil {
				t.Fatalf("%s: Replay delivered %d of %d frames, error %v", door, n, len(want), err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		replay("after Refresh", reader)
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(maxPayload+64*len(data)+1<<16); got > bound {
			t.Fatalf("Replay of %d bytes allocated %d bytes, over %d", len(data), got, bound)
		}

		opened, err := Open(dir)
		if err != nil || opened.End() != end {
			t.Fatalf("Open = (%v, %v), want end %d as Refresh found", opened, err, end)
		}
		if len(segs) > 0 {
			st, err := os.Stat(filepath.Join(dir, segName(bases[len(bases)-1])))
			if err != nil || st.Size() != int64(tail) {
				t.Fatalf("after Open the last segment is %+v (%v), want its whole frames' %d bytes", st, err, tail)
			}
		}
		replay("after Open", opened)
	})
}
