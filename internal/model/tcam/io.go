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

// Write serializes the trained model to w in gob format. The wire is
// topic-major: the table's columns go out as V-wide rows, whatever room
// the model leaves behind V, so the bytes depend on the parameters
// alone.
func (m *Model) Write(w io.Writer) error {
	out := wire{
		Label:        m.label,
		NumUsers:     m.numUsers,
		NumIntervals: m.numIntervals,
		NumItems:     m.numItems,
		K1:           m.k1,
		K2:           m.k2,
		Theta:        m.theta,
		Phi:          m.columns(0, m.k1),
		PhiX:         m.columns(m.k1, m.k2),
		Lambda:       m.lambda,
		BackgroundW:  m.backgroundW,
	}
	if m.k2 == 0 {
		out.ThetaT = m.columns(m.k1, m.numIntervals)
	} else {
		out.ThetaTx = m.ctx
	}
	if m.backgroundW > 0 {
		out.Background = m.columns(m.k1+m.k2, 1)
	}
	bw := bufio.NewWriter(w)
	if err := gob.NewEncoder(bw).Encode(&out); err != nil {
		return fmt.Errorf("tcam: encode: %w", err)
	}
	return bw.Flush()
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
	// The other kind's context table must be absent; ITCAM's θ' rows are
	// item-indexed and go into the table.
	ctx, ctxCols, other := w.ThetaTx, w.K2, w.ThetaT
	if w.K2 == 0 {
		ctx, ctxCols, other = w.ThetaT, w.NumItems, w.ThetaTx
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
		ctx:          w.ThetaTx,
		lambda:       w.Lambda,
		backgroundW:  w.BackgroundW,
	}
	V := m.numItems
	if !isTable(m.theta, m.numUsers, m.k1) || !isTable(w.Phi, m.k1, V) ||
		!isTable(ctx, m.numIntervals, ctxCols) || len(other) != 0 ||
		!isTable(w.PhiX, m.k2, V) || len(m.lambda) != m.numUsers {
		return nil, fmt.Errorf("tcam: parameter lengths inconsistent with dimensions")
	}
	if !validBackground(m.k2, m.backgroundW) {
		return nil, fmt.Errorf("tcam: background weight %v outside [0,1), or set without time topics (K2=%d)", m.backgroundW, m.k2)
	}
	want := 0
	if m.backgroundW > 0 {
		want = V
	}
	if len(w.Background) != want {
		return nil, fmt.Errorf("tcam: background length %d, want %d", len(w.Background), want)
	}
	for _, t := range []struct {
		name string
		rows []float64
		cols int
	}{
		{"θ", m.theta, m.k1},
		{"φ", w.Phi, V},
		{"θ'", ctx, ctxCols},
		{"φ'", w.PhiX, V},
		{"background", w.Background, V},
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
	// The item-indexed rows are laid into the table and not kept: the
	// table is the model's only copy of them. Each kind's absent rows are
	// empty and lay nothing.
	k := m.NumTopics()
	m.table = make([]float64, V*k)
	layColumns(m.table, k, 0, w.Phi, V)
	layColumns(m.table, k, m.k1, w.ThetaT, V)
	layColumns(m.table, k, m.k1, w.PhiX, V)
	layColumns(m.table, k, m.k1+m.k2, w.Background, V)
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
