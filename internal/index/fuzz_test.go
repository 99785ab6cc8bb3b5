package index

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"tcam/internal/dataset"
	"tcam/internal/model/tcam"
)

// modelWire carries the field names of the model's gob format, which
// gob matches by name: the seeds below write models no trainer would.
type modelWire struct {
	Label        string
	NumUsers     int
	NumIntervals int
	NumItems     int
	K1, K2       int
	Theta        []float64
	Phi          []float64
	ThetaT       []float64
	ThetaTx      []float64
	PhiX         []float64
	Lambda       []float64
	BackgroundW  float64
	Background   []float64
}

// names returns n distinct names with the given prefix.
func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

// wrap encodes a bundle around raw model bytes, its names and grid
// sized by the model's header.
func wrap(tb testing.TB, kind Kind, w modelWire) []byte {
	tb.Helper()
	var model, file bytes.Buffer
	if err := gob.NewEncoder(&model).Encode(&w); err != nil {
		tb.Fatal(err)
	}
	if err := gob.NewEncoder(&file).Encode(&fileWire{
		Kind:  kind,
		Grid:  dataset.TimeGrid{Length: 10, Num: w.NumIntervals},
		Users: names("u", w.NumUsers),
		Items: names("v", w.NumItems),
		Model: model.Bytes(),
	}); err != nil {
		tb.Fatal(err)
	}
	return file.Bytes()
}

// unsafeModel names the first way m breaks the rule tcam.Read enforces
// — every θu, φz, θ't, φ'x and background row a probability
// distribution within 1e-9, every λu in [0, 1] — or returns "".
func unsafeModel(m *tcam.Model) string {
	row := func(p []float64) bool {
		sum := 0.0
		for _, x := range p {
			if !(x >= 0 && x <= math.MaxFloat64) {
				return false
			}
			sum += x
		}
		return math.Abs(sum-1) <= 1e-9
	}
	for u := 0; u < m.NumUsers(); u++ {
		if !row(m.UserInterest(u)) {
			return fmt.Sprintf("θ of user %d", u)
		}
		if l := m.Lambda(u); !(l >= 0 && l <= 1) {
			return fmt.Sprintf("λ of user %d is %v", u, l)
		}
	}
	for z := 0; z < m.K1(); z++ {
		if !row(m.UserTopic(z)) {
			return fmt.Sprintf("φ of topic %d", z)
		}
	}
	for t := 0; t < m.NumIntervals(); t++ {
		if !row(m.TemporalContext(t)) {
			return fmt.Sprintf("θ' of interval %d", t)
		}
	}
	for x := 0; x < m.K2(); x++ {
		if !row(m.TimeTopic(x)) {
			return fmt.Sprintf("φ' of time topic %d", x)
		}
	}
	if k := m.K1() + m.K2(); m.K2() > 0 && m.NumTopics() > k && !row(m.Topic(k)) {
		return "background"
	}
	return ""
}

// FuzzBundleRead: whatever bytes arrive where a bundle should be, Read
// never panics, allocates no more than a constant beyond a multiple of
// the bytes it was given — never in proportion to a length field the
// bytes do not carry — and accepts only a bundle whose metadata matches
// its model and whose model is safe to score with (unsafeModel). Seeds
// are a bundle around each model fixture, and bundles around models
// Read must refuse: a header whose dimension products wrap around to
// the decoded lengths, a NaN and a negative φ entry, a λu of 7.
func FuzzBundleRead(f *testing.F) {
	fixtures, err := filepath.Glob("../model/tcam/testdata/*_model.gob")
	if err != nil || len(fixtures) == 0 {
		f.Fatalf("model fixtures: %v (%d found)", err, len(fixtures))
	}
	var trained modelWire
	for i, path := range fixtures {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		m, err := tcam.Read(bytes.NewReader(raw))
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		var buf bytes.Buffer
		b := New(m, dataset.TimeGrid{Length: 10, Num: m.NumIntervals()}, names("u", m.NumUsers()), names("v", m.NumItems()))
		if err := b.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		if i == 0 {
			if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&trained); err != nil {
				f.Fatal(err)
			}
		}
	}
	kind := KindTTCAM
	if trained.K2 == 0 {
		kind = KindITCAM
	}
	edited := func(edit func(w *modelWire)) []byte {
		w := trained
		w.Phi = append([]float64(nil), trained.Phi...)
		w.Lambda = append([]float64(nil), trained.Lambda...)
		edit(&w)
		return wrap(f, kind, w)
	}
	f.Add(wrap(f, KindITCAM, modelWire{NumUsers: 4, K1: 1 << 62, NumItems: 4, NumIntervals: 1,
		ThetaT: []float64{0.25, 0.25, 0.25, 0.25}, Lambda: []float64{0.5, 0.5, 0.5, 0.5}}))
	f.Add(edited(func(w *modelWire) { w.Phi[1] = math.NaN() }))
	f.Add(edited(func(w *modelWire) { w.Phi[0], w.Phi[1] = -w.Phi[1], w.Phi[0]+2*w.Phi[1] }))
	f.Add(edited(func(w *modelWire) { w.Lambda[0] = 7 }))
	f.Add([]byte("not a bundle"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b, err := Read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// gob's decoder may reserve up to 10 MiB for a message or a
		// slice before it finds the bytes missing; everything else a
		// read allocates is carried by the input.
		if grew, bound := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(data))+64<<20; grew > bound {
			t.Fatalf("reading %d bytes allocated %d, more than %d", len(data), grew, bound)
		}
		if err != nil {
			return
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("Read accepted a bundle that fails Validate: %v", err)
		}
		if why := unsafeModel(b.Model); why != "" {
			t.Fatalf("Read accepted a model whose %s is out of bounds", why)
		}
	})
}
