package tcam

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
)

// wire is the gob format of a trained model. gob matches fields by
// name, so this one struct also decodes the streams written when ITCAM
// and TTCAM had a format each: an ITCAM stream carries ThetaT and no
// K2, a TTCAM stream ThetaTx and PhiX.
type wire struct {
	Label        string
	NumUsers     int
	NumIntervals int
	NumItems     int
	K1, K2       int
	Theta        []float64
	Phi          []float64
	ThetaT       []float64 // item context, T×V; K2 == 0 only
	ThetaTx      []float64 // topic-mixture context, T×K2
	PhiX         []float64
	Lambda       []float64
	BackgroundW  float64
	Background   []float64
}

// Write serializes the trained model to w in gob format. The wire rows
// are V wide whatever room the model's own slabs leave behind them, so
// the bytes depend on the parameters alone.
func (m *Model) Write(w io.Writer) error {
	out := wire{
		Label:        m.label,
		NumUsers:     m.numUsers,
		NumIntervals: m.numIntervals,
		NumItems:     m.numItems,
		K1:           m.k1,
		K2:           m.k2,
		Theta:        m.theta,
		Phi:          compactRows(m.phi, m.stride, m.numItems),
		PhiX:         compactRows(m.phiX, m.stride, m.numItems),
		Lambda:       m.lambda,
		BackgroundW:  m.backgroundW,
		Background:   compactRows(m.background, m.stride, m.numItems),
	}
	if m.k2 == 0 {
		out.ThetaT = m.ctx
	} else {
		out.ThetaTx = m.ctx
	}
	bw := bufio.NewWriter(w)
	if err := gob.NewEncoder(bw).Encode(&out); err != nil {
		return fmt.Errorf("tcam: encode: %w", err)
	}
	return bw.Flush()
}

// compactRows returns the table's rows, stride apart in src, laid end
// to end at cols entries each — src itself when they already are.
func compactRows(src []float64, stride, cols int) []float64 {
	if stride == cols {
		return src
	}
	dst := make([]float64, 0, len(src)/stride*cols)
	for r := 0; r < len(src); r += stride {
		dst = append(dst, src[r:r+cols]...)
	}
	return dst
}

// Read deserializes a model written with Write, validating it: the
// bytes may come from anywhere, and a model that passes is safe to
// score with.
func Read(r io.Reader) (*Model, error) {
	var w wire
	if err := gob.NewDecoder(bufio.NewReader(r)).Decode(&w); err != nil {
		return nil, fmt.Errorf("tcam: decode: %w", err)
	}
	if w.NumUsers <= 0 || w.NumIntervals <= 0 || w.NumItems <= 0 || w.K1 <= 0 || w.K2 < 0 {
		return nil, fmt.Errorf("tcam: corrupt dimensions %d/%d/%d/K1=%d/K2=%d",
			w.NumUsers, w.NumIntervals, w.NumItems, w.K1, w.K2)
	}
	ctx, other := w.ThetaTx, w.ThetaT // the other kind's context table must be absent
	if w.K2 == 0 {
		ctx, other = w.ThetaT, w.ThetaTx
	}
	m := &Model{
		label:        w.Label,
		numUsers:     w.NumUsers,
		numIntervals: w.NumIntervals,
		numItems:     w.NumItems,
		stride:       w.NumItems,
		k1:           w.K1,
		k2:           w.K2,
		theta:        w.Theta,
		phi:          w.Phi,
		ctx:          ctx,
		phiX:         w.PhiX,
		lambda:       w.Lambda,
		backgroundW:  w.BackgroundW,
		background:   w.Background,
	}
	if len(m.theta) != m.numUsers*m.k1 || len(m.phi) != m.k1*m.numItems ||
		len(m.ctx) != m.numIntervals*m.ctxWidth(m.numItems) || len(other) != 0 ||
		len(m.phiX) != m.k2*m.numItems || len(m.lambda) != m.numUsers {
		return nil, fmt.Errorf("tcam: parameter lengths inconsistent with dimensions")
	}
	if !validBackground(m.k2, m.backgroundW) {
		return nil, fmt.Errorf("tcam: background weight %v outside [0,1), or set without time topics (K2=%d)", m.backgroundW, m.k2)
	}
	want := 0
	if m.backgroundW > 0 {
		want = m.numItems
	}
	if len(m.background) != want {
		return nil, fmt.Errorf("tcam: background length %d, want %d", len(m.background), want)
	}
	m.table = m.layTable(nil)
	return m, nil
}
