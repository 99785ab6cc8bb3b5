// Package index packages everything an online recommender deployment
// needs into one artifact: the trained TCAM model, the time grid that
// maps wall-clock time onto training intervals, and the user/item
// vocabularies. cmd/tcamtrain writes a bundle; cmd/tcamquery and
// cmd/tcamserver load it and rebuild the Section 4.2 sorted-list index
// (rebuilding is O(K·V·logV), far cheaper than training, so the lists
// themselves are not serialized).
package index

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"

	"tcam/internal/atomicfile"
	"tcam/internal/dataset"
	"tcam/internal/model"
	"tcam/internal/model/tcam"
	"tcam/internal/topk"
)

// Kind names the model family inside a bundle; it is what /healthz
// reports and what bundle files record.
type Kind string

// The model kinds a bundle can carry.
const (
	KindITCAM Kind = "itcam"
	KindTTCAM Kind = "ttcam"
)

// Bundle is a self-contained deployment artifact.
type Bundle struct {
	Model *tcam.Model

	Grid  dataset.TimeGrid
	Users []string
	Items []string
}

// New assembles a bundle around a trained model of either kind.
func New(m *tcam.Model, grid dataset.TimeGrid, users, items []string) *Bundle {
	return &Bundle{Model: m, Grid: grid, Users: users, Items: items}
}

// NewTTCAM is New under the name the bench/ module calls.
func NewTTCAM(m *tcam.Model, grid dataset.TimeGrid, users, items []string) *Bundle {
	return New(m, grid, users, items)
}

// Kind reports which variant the bundle's model is, read off the model's
// own dimensions.
func (b *Bundle) Kind() Kind {
	if b.Model.K2() == 0 {
		return KindITCAM
	}
	return KindTTCAM
}

// Scorer returns the bundle's model behind the TopicScorer interface.
func (b *Bundle) Scorer() model.TopicScorer { return b.Model }

// BuildIndex precomputes the TA sorted lists for the bundle's model.
func (b *Bundle) BuildIndex() *topk.Index {
	return topk.BuildIndex(b.Model)
}

// Validate reports the first inconsistency between the model and the
// bundle metadata, or nil.
func (b *Bundle) Validate() error {
	m := b.Model
	if m == nil {
		return errors.New("index: bundle has no model")
	}
	if len(b.Items) != m.NumItems() {
		return fmt.Errorf("index: %d item names for a %d-item model", len(b.Items), m.NumItems())
	}
	if len(b.Users) != m.NumUsers() {
		return fmt.Errorf("index: %d user names for a %d-user model", len(b.Users), m.NumUsers())
	}
	if b.Grid.Num != m.NumIntervals() {
		return fmt.Errorf("index: grid has %d intervals, model %d", b.Grid.Num, m.NumIntervals())
	}
	return nil
}

// fileWire is the single gob message holding the whole bundle. The
// model payload is embedded as bytes: gob decoders read ahead, so two
// decoders cannot safely share one stream.
type fileWire struct {
	Kind  Kind
	Grid  dataset.TimeGrid
	Users []string
	Items []string
	Model []byte
}

// Write serializes the bundle to w.
func (b *Bundle) Write(w io.Writer) error {
	if err := b.Validate(); err != nil {
		return err
	}
	var payload bytes.Buffer
	if err := b.Model.Write(&payload); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	enc := gob.NewEncoder(bw)
	if err := enc.Encode(&fileWire{
		Kind: b.Kind(), Grid: b.Grid, Users: b.Users, Items: b.Items, Model: payload.Bytes(),
	}); err != nil {
		return fmt.Errorf("index: encode: %w", err)
	}
	return bw.Flush()
}

// Read deserializes a bundle written with Write.
func Read(r io.Reader) (*Bundle, error) { return read(r, func() {}) }

// read is Read calling collect twice: once the file's message is
// decoded, and once the model is.
func read(r io.Reader, collect func()) (*Bundle, error) {
	var w fileWire
	if err := gob.NewDecoder(bufio.NewReader(r)).Decode(&w); err != nil {
		return nil, fmt.Errorf("index: decode: %w", err)
	}
	// The payload is handed over, not kept: once tcam.Read has decoded
	// it, nothing holds it.
	payload := w.Model
	w.Model = nil
	collect()
	m, err := tcam.Read(bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	collect()
	b := &Bundle{Model: m, Grid: w.Grid, Users: w.Users, Items: w.Items}
	if w.Kind != b.Kind() {
		return nil, fmt.Errorf("index: bundle says kind %q but carries a %q model", w.Kind, b.Kind())
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// Save writes the bundle to path crash-safely: the bytes land in a
// temp file that is synced and renamed over path, so an existing bundle
// (possibly being served and hot-reloaded) is never left torn by a
// crash mid-save.
func (b *Bundle) Save(path string) error {
	return atomicfile.Write(path, b.Write)
}

// Load reads a bundle from path, as a process boots or reloads. Each
// decode leaves garbage as large as the model: the file's gob message
// and the payload it copies out, then the model's own message and its
// topic-major rows. Load collects it and hands its pages back to the
// OS as each decode ends, so the next step grows from what is live, and
// the process's peak resident memory does not depend on when the
// collector happened to run.
func Load(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	//tcamvet:ignore errcheck close error on a read-only file carries no signal
	defer f.Close()
	return read(f, debug.FreeOSMemory)
}
