package tcam

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"math"
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
// score with. Every table must be exactly as long as its dimensions say
// — checked against the decoded lengths, so no product of header fields
// can overflow — every θ, φ, θ' and φ' row and the background a
// probability distribution (finite, non-negative entries summing to 1
// within rowSumTol), and every λu in [0, 1]: TA's sorted lists bound
// scores only under that non-negative decomposition (Eq. 22).
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
	if !isTable(m.theta, m.numUsers, m.k1) || !isTable(m.phi, m.k1, m.numItems) ||
		!isTable(m.ctx, m.numIntervals, m.ctxWidth(m.numItems)) || len(other) != 0 ||
		!isTable(m.phiX, m.k2, m.numItems) || len(m.lambda) != m.numUsers {
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
	for _, t := range []struct {
		name string
		rows []float64
		cols int
	}{
		{"θ", m.theta, m.k1},
		{"φ", m.phi, m.numItems},
		{"θ'", m.ctx, m.ctxWidth(m.numItems)},
		{"φ'", m.phiX, m.numItems},
		{"background", m.background, m.numItems},
	} {
		if r := badRow(t.rows, t.cols); r >= 0 {
			return nil, fmt.Errorf("tcam: %s row %d is not a probability distribution", t.name, r)
		}
	}
	for u, l := range m.lambda {
		if !(l >= 0 && l <= 1) {
			return nil, fmt.Errorf("tcam: λ of user %d is %v, outside [0,1]", u, l)
		}
	}
	m.table = m.layTable(nil)
	return m, nil
}

// rowSumTol is how far from 1 a decoded probability row may sum.
// Training and fold-in normalize every row by one division per entry,
// which leaves their sums within a few ulps of 1.
const rowSumTol = 1e-9

// isTable reports whether data holds exactly rows×cols entries, without
// forming the product: header fields are untrusted, and their product
// can wrap around to a decoded length.
func isTable(data []float64, rows, cols int) bool {
	if rows == 0 || cols == 0 {
		return len(data) == 0
	}
	return len(data)%cols == 0 && len(data)/cols == rows
}

// badRow returns the first of data's cols-wide rows that is not a
// probability distribution — an entry negative or not finite, or a sum
// more than rowSumTol from 1 — or −1 when every row is one.
func badRow(data []float64, cols int) int {
	for r := 0; r*cols < len(data); r++ {
		sum := 0.0
		for _, p := range data[r*cols : (r+1)*cols] {
			if !(p >= 0 && p <= math.MaxFloat64) {
				return r
			}
			sum += p
		}
		if math.Abs(sum-1) > rowSumTol {
			return r
		}
	}
	return -1
}
