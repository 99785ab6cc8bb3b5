// Package ingest is the append-only, crash-safe event log that feeds
// the streaming fold-in loop. Interactions arrive as Records, are
// framed with a CRC and appended durably to segment files, and are
// replayed in exactly the order they were appended — the log, not the
// in-memory model, is the source of truth for everything learned after
// the boot bundle was trained.
//
// Layout: a log is a directory of segment files named
// seg-<first-record-offset>.log. Offsets are record sequence numbers
// (the first record ever appended is offset 0), so a segment's name
// states which prefix of the log precedes it. Appends go to the
// highest-named segment through atomicfile.Append — one buffered write
// plus fsync per batch — and roll to a new segment once the active one
// exceeds the size limit.
//
// Frame format (little-endian):
//
//	[4-byte payload length][payload: JSON Record][4-byte IEEE CRC32 of payload]
//
// Crash recovery: a crash mid-append can tear only the final frames of
// the highest-named segment, because appends are strictly sequential.
// Open therefore truncates any invalid tail of the last segment and
// resumes appending after the surviving prefix; an invalid frame in
// any earlier segment cannot be explained by a torn append and is
// reported as corruption. Replay is deterministic: same directory
// contents, same records in the same order with the same offsets.
//
// Single writer, many readers: one process (or handle) appends; any
// number of others tail the same directory by calling Refresh to pick
// up newly durable records and Replay to read them. Refresh never
// truncates — a partial trailing frame may be the writer's in-flight
// append and simply stays invisible until it completes.
package ingest

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"tcam/internal/atomicfile"
	"tcam/internal/faultinject"
)

// DefaultSegmentBytes is the segment-roll threshold used by Open.
const DefaultSegmentBytes = 4 << 20

const (
	segPrefix  = "seg-"
	segSuffix  = ".log"
	frameHdr   = 4 // payload length
	frameCRC   = 4
	maxPayload = 1 << 20 // sanity bound: no event record is a megabyte
)

// Record is one interaction event: user rated (or re-rated) item at
// Time with Score. IDs are the external string identifiers; the dense
// index mapping is owned by whoever consumes the log, because the
// mapping depends on which prefix has been consumed.
type Record struct {
	User  string  `json:"user"`
	Item  string  `json:"item"`
	Time  int64   `json:"time"`
	Score float64 `json:"score"`
}

func (r Record) validate() error {
	if r.User == "" || r.Item == "" {
		return fmt.Errorf("ingest: record needs non-empty user and item, got user=%q item=%q", r.User, r.Item)
	}
	if !(r.Score > 0) {
		return fmt.Errorf("ingest: record score must be positive, got %v", r.Score)
	}
	return nil
}

// Log is an open event log. It is safe for concurrent use: appends are
// serialized under a mutex, and Replay reads immutable on-disk
// prefixes.
type Log struct {
	dir      string
	maxBytes int64

	mu       sync.Mutex
	end      int64  // offset of the next record to be appended
	segBase  int64  // offset of the active segment's first record
	segBytes int64  // bytes currently in the active segment
	buf      []byte // frame staging buffer, reused across Appends
	tail     cursor // where the last Replay stopped
}

// cursor states one fact about the on-disk log: record off starts at
// byte pos of segment base. The log is append-only, so a cursor stays
// true forever; a Replay that starts at off reads from pos instead of
// walking the segment from its first frame.
type cursor struct{ off, base, pos int64 }

// Open opens (creating if needed) the log directory with the default
// segment size.
func Open(dir string) (*Log, error) { return OpenLimit(dir, DefaultSegmentBytes) }

// OpenLimit is Open with an explicit segment-roll threshold in bytes.
// It scans every segment, verifies frame CRCs, truncates a torn tail on
// the last segment, and positions the log to append after the highest
// surviving record.
func OpenLimit(dir string, maxSegmentBytes int64) (*Log, error) {
	if maxSegmentBytes <= 0 {
		return nil, fmt.Errorf("ingest: segment size must be positive, got %d", maxSegmentBytes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	bases, err := segmentBases(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, maxBytes: maxSegmentBytes}
	for i, base := range bases {
		if base != l.end {
			return nil, fmt.Errorf("ingest: segment %s starts at offset %d but the preceding segments end at %d",
				segName(base), base, l.end)
		}
		last := i == len(bases)-1
		n, size, err := l.recoverSegment(base, last)
		if err != nil {
			return nil, err
		}
		l.end = base + n
		if last {
			l.segBase = base
			l.segBytes = size
		}
	}
	return l, nil
}

// End returns the offset one past the last appended record — the
// offset Replay would need to see only future records.
func (l *Log) End() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.end
}

// Append durably appends recs in order and returns the new end offset.
// The whole batch is written as one atomicfile.Append call: after a
// crash either a prefix of the batch survives (torn frames are
// discarded on the next Open) or all of it does.
func (l *Log) Append(recs ...Record) (int64, error) {
	for _, r := range recs {
		if err := r.validate(); err != nil {
			return 0, err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(recs) == 0 {
		return l.end, nil
	}
	if err := faultinject.FireErr("ingest.append"); err != nil {
		return l.end, err
	}
	if l.segBytes >= l.maxBytes {
		l.segBase = l.end
		l.segBytes = 0
	}
	l.buf = l.buf[:0]
	for _, r := range recs {
		payload, err := json.Marshal(r)
		if err != nil {
			return l.end, fmt.Errorf("ingest: encode record: %w", err)
		}
		l.buf = appendFrame(l.buf, payload)
	}
	path := filepath.Join(l.dir, segName(l.segBase))
	if err := atomicfile.Append(path, func(w io.Writer) error {
		_, err := w.Write(l.buf)
		return err
	}); err != nil {
		// The on-disk state is unknown (a prefix may have landed); reopen
		// to find out rather than guessing. Callers should treat the Log
		// as poisoned and re-Open after an append error.
		return l.end, err
	}
	l.segBytes += int64(len(l.buf))
	l.end += int64(len(recs))
	return l.end, nil
}

// Replay invokes fn for every record with offset >= from, in offset
// order, stopping early when fn returns an error. It reads the
// immutable prefix present when Replay starts; records appended
// concurrently may or may not be seen. A Replay that starts where the
// handle's previous one stopped — a tailing consumer's next cycle —
// reads only the bytes appended since.
func (l *Log) Replay(from int64, fn func(off int64, rec Record) error) error {
	bases, err := segmentBases(l.dir)
	if err != nil {
		return err
	}
	l.mu.Lock()
	end, tail := l.end, l.tail
	l.mu.Unlock()
	next := int64(0)
	for i, base := range bases {
		if base != next {
			return fmt.Errorf("ingest: segment %s starts at offset %d but the preceding segments end at %d",
				segName(base), base, next)
		}
		// Skip whole segments below from: the next segment's base bounds
		// this one's record count.
		if i+1 < len(bases) && bases[i+1] <= from {
			next = bases[i+1]
			continue
		}
		at := cursor{off: base, base: base}
		if tail.base == base && tail.off == from {
			at = tail
		}
		if at, err = l.replaySegment(at, end, from, fn); err != nil {
			return err
		}
		next, tail = at.off, at
	}
	l.mu.Lock()
	l.tail = tail
	l.mu.Unlock()
	return nil
}

// replaySegment scans one segment from the cursor at, calling fn for
// records at or past from, bounded by end (records beyond the opened
// end are a concurrent append's tail and are ignored). It returns the
// cursor of the first record it did not scan.
func (l *Log) replaySegment(at cursor, end, from int64, fn func(off int64, rec Record) error) (cursor, error) {
	data, err := readSegment(l.dir, at.base, at.pos)
	if err != nil {
		return at, err
	}
	pos := 0
	for pos < len(data) && at.off < end {
		payload, nextPos, ok := readFrame(data, pos)
		if !ok {
			return at, fmt.Errorf("ingest: %s: invalid frame at byte %d (offset %d)", segName(at.base), at.pos, at.off)
		}
		if at.off >= from {
			var rec Record
			if err := json.Unmarshal(payload, &rec); err != nil {
				return at, fmt.Errorf("ingest: %s: decode record at offset %d: %w", segName(at.base), at.off, err)
			}
			if err := fn(at.off, rec); err != nil {
				return at, err
			}
		}
		at.off++
		at.pos += int64(nextPos - pos)
		pos = nextPos
	}
	return at, nil
}

// Refresh picks up records appended through other handles — typically
// another process: a producer appends while the serving process tails —
// and advances End past every complete frame found, returning the new
// end. It resumes from the end this handle already knows: segments
// below the active one are sealed (appends only ever go to the
// highest-named segment, and every frame below the known end was
// CRC-checked when the handle first passed it), so only the active
// segment's bytes past the known end, and any segment opened since, are
// read — and when two stats show neither changed (unchanged), nothing
// is. Unlike Open it never truncates: an incomplete trailing frame on
// the last segment may be a live writer's in-flight append, so it is
// simply not visible until a later Refresh. An invalid frame anywhere
// else, or an active segment shorter than the known end, is corruption.
func (l *Log) Refresh() (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.unchanged() {
		return l.end, nil
	}
	bases, err := segmentBases(l.dir)
	if err != nil {
		return 0, err
	}
	end, segBase, segBytes := l.end, l.segBase, l.segBytes
	active := sort.Search(len(bases), func(i int) bool { return bases[i] >= segBase })
	if segBytes > 0 && (active == len(bases) || bases[active] != segBase) {
		return 0, fmt.Errorf("ingest: refresh found no segment %s, which held the known end %d (log rewritten underneath us?)",
			segName(segBase), end)
	}
	for i := active; i < len(bases); i++ {
		base, from := bases[i], int64(0)
		if base == segBase {
			from = segBytes
		} else if base != end {
			return 0, fmt.Errorf("ingest: segment %s starts at offset %d but the preceding segments end at %d",
				segName(base), base, end)
		}
		n, size, _, err := scanSegment(l.dir, base, from, i == len(bases)-1)
		if err != nil {
			return 0, err
		}
		end, segBase, segBytes = end+n, base, size
	}
	l.end, l.segBase, l.segBytes = end, segBase, segBytes
	return end, nil
}

// unchanged reports whether the directory holds nothing this handle has
// not read, by two stats instead of a listing — a tailing consumer
// polls far more often than a producer appends. New bytes can only
// land in the active segment or, once the writer rolls, in the one
// segment that can follow it, which is named after the known end. An
// active segment of any other length than the known one (shrunken,
// missing, or ending in a torn frame included) and any stat failure
// leave the verdict to Refresh's listing.
func (l *Log) unchanged() bool {
	var size int64
	switch st, err := os.Stat(filepath.Join(l.dir, segName(l.segBase))); {
	case err == nil:
		size = st.Size()
	case !errors.Is(err, fs.ErrNotExist):
		return false
	}
	if size != l.segBytes {
		return false
	}
	if l.end == l.segBase {
		return true // nothing read from the active segment yet: it is its own successor
	}
	_, err := os.Stat(filepath.Join(l.dir, segName(l.end)))
	return errors.Is(err, fs.ErrNotExist)
}

// recoverSegment validates one segment at Open time, returning its
// record count and surviving byte size. On the last segment a torn
// tail — any suffix that does not parse as complete, CRC-valid frames —
// is truncated away; anywhere else it is corruption.
func (l *Log) recoverSegment(base int64, last bool) (records, size int64, err error) {
	n, size, torn, err := scanSegment(l.dir, base, 0, last)
	if err != nil {
		return 0, 0, err
	}
	if torn {
		// Torn append: nothing can follow a tear, truncate and resume.
		path := filepath.Join(l.dir, segName(base))
		if err := os.Truncate(path, size); err != nil {
			return 0, 0, fmt.Errorf("ingest: truncate torn tail of %s: %w", segName(base), err)
		}
	}
	return n, size, nil
}

// scanSegment counts the complete, CRC-valid frames of one segment from
// byte from on (a frame boundary), without modifying it. size is the
// byte just past the last of them. torn reports a trailing non-frame
// suffix on the last segment (size excludes it); the same suffix on any
// earlier segment is corruption.
func scanSegment(dir string, base, from int64, last bool) (records, size int64, torn bool, err error) {
	data, err := readSegment(dir, base, from)
	if err != nil {
		return 0, 0, false, err
	}
	var n int64
	pos := 0
	for pos < len(data) {
		_, next, ok := readFrame(data, pos)
		if !ok {
			if !last {
				return 0, 0, false, fmt.Errorf("ingest: %s: corrupt frame at byte %d (mid-log corruption, refusing to open)",
					segName(base), from+int64(pos))
			}
			return n, from + int64(pos), true, nil
		}
		n++
		pos = next
	}
	return n, from + int64(pos), false, nil
}

// readSegment returns the bytes of one segment from byte from to its
// end. A segment shorter than from has lost bytes this handle already
// read — the file shrank — which an append-only log never does.
func readSegment(dir string, base, from int64) ([]byte, error) {
	f, err := os.Open(filepath.Join(dir, segName(base)))
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	data, err := readFrom(f, from)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("ingest: %s: %w", segName(base), err)
	}
	return data, nil
}

func readFrom(f *os.File, from int64) ([]byte, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < from {
		return nil, fmt.Errorf("%d bytes, below the known end at byte %d (file shrank: log rewritten underneath us?)", st.Size(), from)
	}
	data := make([]byte, st.Size()-from)
	_, err = io.ReadFull(io.NewSectionReader(f, from, int64(len(data))), data)
	return data, err
}

// appendFrame encodes one payload frame onto buf.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHdr]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	var crc [frameCRC]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	return append(buf, crc[:]...)
}

// readFrame decodes the frame starting at pos, returning its payload
// and the next frame's position. ok is false when the bytes at pos do
// not form a complete, CRC-valid frame.
func readFrame(data []byte, pos int) (payload []byte, next int, ok bool) {
	if pos+frameHdr > len(data) {
		return nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(data[pos : pos+frameHdr]))
	if n <= 0 || n > maxPayload {
		return nil, 0, false
	}
	end := pos + frameHdr + n + frameCRC
	if end > len(data) {
		return nil, 0, false
	}
	payload = data[pos+frameHdr : pos+frameHdr+n]
	want := binary.LittleEndian.Uint32(data[pos+frameHdr+n : end])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, 0, false
	}
	return payload, end, true
}

// segName formats the segment file name for a first-record offset.
func segName(base int64) string {
	return fmt.Sprintf("%s%016d%s", segPrefix, base, segSuffix)
}

// segmentBases lists the first-record offsets of every segment in dir,
// ascending.
func segmentBases(dir string) ([]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	var bases []int64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		base, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
		if err != nil || base < 0 {
			return nil, fmt.Errorf("ingest: segment name %q does not encode an offset", name)
		}
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases, nil
}
