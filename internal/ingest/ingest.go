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
	"math"
	"os"
	"path/filepath"
	"slices"
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

	mu   sync.Mutex
	head cursor // the next record to be appended, at the end of the active segment
	buf  []byte // frame staging buffer, reused across Appends
	tail cursor // where the last Replay stopped
}

// cursor states one fact about the on-disk log: record off starts at
// byte pos of segment base (the offset of that segment's first record).
// The log is append-only, so a cursor stays true forever; a Replay that
// starts at off reads from pos instead of walking the segment from its
// first frame, and a Refresh reads only what lies past the head.
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
	at, torn, err := scan(dir, bases, cursor{}, math.MaxInt64, true, nil)
	if err != nil {
		return nil, err
	}
	if torn {
		// Torn append: nothing can follow a tear, truncate and resume.
		if err := os.Truncate(filepath.Join(dir, segName(at.base)), at.pos); err != nil {
			return nil, fmt.Errorf("ingest: truncate torn tail of %s: %w", segName(at.base), err)
		}
	}
	return &Log{dir: dir, maxBytes: maxSegmentBytes, head: at}, nil
}

// End returns the offset one past the last appended record — the
// offset Replay would need to see only future records.
func (l *Log) End() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head.off
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
		return l.head.off, nil
	}
	if err := faultinject.FireErr("ingest.append"); err != nil {
		return l.head.off, err
	}
	if l.head.pos >= l.maxBytes {
		l.head.base, l.head.pos = l.head.off, 0
	}
	l.buf = l.buf[:0]
	for _, r := range recs {
		payload, err := json.Marshal(r)
		if err != nil {
			return l.head.off, fmt.Errorf("ingest: encode record: %w", err)
		}
		l.buf = appendFrame(l.buf, payload)
	}
	path := filepath.Join(l.dir, segName(l.head.base))
	if err := atomicfile.Append(path, func(w io.Writer) error {
		_, err := w.Write(l.buf)
		return err
	}); err != nil {
		// The on-disk state is unknown (a prefix may have landed); reopen
		// to find out rather than guessing. Callers should treat the Log
		// as poisoned and re-Open after an append error.
		return l.head.off, err
	}
	l.head.pos += int64(len(l.buf))
	l.head.off += int64(len(recs))
	return l.head.off, nil
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
	end, tail := l.head.off, l.tail
	l.mu.Unlock()
	// Start at the first frame of the segment holding from — the next
	// segment's base bounds a segment's record count, so whole segments
	// below it are skipped — or where the previous Replay stopped, if
	// that is exactly from.
	var at cursor
	if i := sort.Search(len(bases), func(i int) bool { return bases[i] > from }); i > 0 {
		at = cursor{off: bases[i-1], base: bases[i-1]}
	}
	if tail.base == at.base && tail.off == from {
		at = tail
	}
	// Records at or beyond the opened end are a concurrent append's and
	// are left alone; below it nothing may be torn.
	at, _, err = scan(l.dir, bases, at, end, false, func(off int64, payload []byte) error {
		if off < from {
			return nil
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("ingest: decode record at offset %d: %w", off, err)
		}
		return fn(off, rec)
	})
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.tail = at
	l.mu.Unlock()
	return nil
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
		return l.head.off, nil
	}
	bases, err := segmentBases(l.dir)
	if err != nil {
		return 0, err
	}
	if l.head.pos > 0 && !slices.Contains(bases, l.head.base) {
		return 0, fmt.Errorf("ingest: refresh found no segment %s, which held the known end %d (log rewritten underneath us?)",
			segName(l.head.base), l.head.off)
	}
	at, _, err := scan(l.dir, bases, l.head, math.MaxInt64, true, nil)
	if err != nil {
		return 0, err
	}
	l.head = at
	return at.off, nil
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
	switch st, err := os.Stat(filepath.Join(l.dir, segName(l.head.base))); {
	case err == nil:
		size = st.Size()
	case !errors.Is(err, fs.ErrNotExist):
		return false
	}
	if size != l.head.pos {
		return false
	}
	if l.head.off == l.head.base {
		return true // nothing read from the active segment yet: it is its own successor
	}
	_, err := os.Stat(filepath.Join(l.dir, segName(l.head.off)))
	return errors.Is(err, fs.ErrNotExist)
}

// scan is the one reader of the log's frames, behind Open, Refresh and
// Replay. Starting at the cursor at — a frame boundary this handle has
// established, or the zero cursor — it walks the segments named by bases
// in order, handing fn (when not nil) the offset and payload of every
// complete, CRC-valid frame below record offset end, and returns the
// cursor of the first record it did not pass. Each segment must start at
// the offset the ones before it end at. Bytes that do not form a frame
// are a torn append — reported as torn, with the cursor in front of
// them — only where one can be: at the tail of the last segment, and
// only if the caller allows it (tornOK: it is reading past every record
// it has seen before). Anywhere else they are corruption.
func scan(dir string, bases []int64, at cursor, end int64, tornOK bool, fn func(off int64, payload []byte) error) (cursor, bool, error) {
	if len(bases) > 0 && bases[0] != 0 {
		return at, false, chainError(bases[0], 0)
	}
	for i := sort.Search(len(bases), func(i int) bool { return bases[i] >= at.base }); i < len(bases); i++ {
		if bases[i] != at.base {
			if bases[i] != at.off {
				return at, false, chainError(bases[i], at.off)
			}
			at = cursor{off: bases[i], base: bases[i]}
		}
		data, err := readSegment(dir, at.base, at.pos)
		if err != nil {
			return at, false, err
		}
		for pos := 0; pos < len(data) && at.off < end; {
			payload, next, ok := readFrame(data, pos)
			if !ok {
				if tornOK && i == len(bases)-1 {
					return at, true, nil
				}
				return at, false, fmt.Errorf("ingest: %s: corrupt frame at byte %d (offset %d): not a torn tail, refusing to read past it",
					segName(at.base), at.pos, at.off)
			}
			if fn != nil {
				if err := fn(at.off, payload); err != nil {
					return at, false, err
				}
			}
			at.off++
			at.pos += int64(next - pos)
			pos = next
		}
	}
	return at, false, nil
}

func chainError(base, end int64) error {
	return fmt.Errorf("ingest: segment %s starts at offset %d but the preceding segments end at %d", segName(base), base, end)
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
