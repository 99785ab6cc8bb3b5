package dataset

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"tcam/internal/atomicfile"
	"tcam/internal/ingest"
)

// WriteJSONL streams the log to w as one JSON object per line, each an
// ingest.Record, so logs are self-describing.
func (d *Interactions) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range d.events {
		if err := enc.Encode(d.Record(e)); err != nil {
			return fmt.Errorf("dataset: write jsonl: %w", err)
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a log produced by WriteJSONL (or any conforming JSONL
// stream): each line is decoded by ingest.Decode and added by Add, so a
// line is refused exactly when Add would refuse its event. Malformed or
// invalid lines abort with an error naming the line number.
func ReadJSONL(r io.Reader) (*Interactions, error) {
	d := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		rec, err := ingest.Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("dataset: jsonl line %d: %w", line, err)
		}
		if err := d.Add(rec.User, rec.Item, rec.Time, rec.Score); err != nil {
			return nil, fmt.Errorf("dataset: jsonl line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: read jsonl: %w", err)
	}
	return d, nil
}

// SaveJSONLFile writes the log to path crash-safely (temp file in the
// same directory, sync, rename), so an interrupted save never corrupts
// an existing log.
func (d *Interactions) SaveJSONLFile(path string) error {
	return atomicfile.Write(path, d.WriteJSONL)
}

// LoadJSONLFile reads a log from path.
func LoadJSONLFile(path string) (*Interactions, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	//tcamvet:ignore errcheck close error on a read-only file carries no signal
	defer f.Close()
	return ReadJSONL(f)
}
