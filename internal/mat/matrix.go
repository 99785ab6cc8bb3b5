package mat

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, element (i,j) at Data[i*Cols+j]
}

// NewMatrix returns a zero-initialized Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns row i as a Vector sharing storage with m.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Scale multiplies every element of m by alpha.
func (m *Matrix) Scale(alpha float64) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// AddMatrix accumulates alpha*b into m element-wise. It panics when the
// shapes differ.
func (m *Matrix) AddMatrix(alpha float64, b *Matrix) {
	m.checkSameShape(b)
	for i, x := range b.Data {
		m.Data[i] += alpha * x
	}
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Mul returns the matrix product m·b. It panics when the inner dimensions
// differ.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %dx%d · %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			//tcamvet:ignore floatcmp exact-zero sparse skip; entries may be negative so an ordered test would change results
			if a == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Add(i, j, a*b.At(k, j))
			}
		}
	}
	return out
}

// MulVec returns m·v as a new vector. It panics when dimensions differ.
func (m *Matrix) MulVec(v Vector) Vector {
	checkLen(m.Cols, len(v))
	out := NewVector(m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Row(i).Dot(v)
	}
	return out
}

// OuterAdd accumulates alpha * (u ⊗ w) into m. It panics when dimensions
// differ from the shape of m.
func (m *Matrix) OuterAdd(alpha float64, u, w Vector) {
	checkLen(m.Rows, len(u))
	checkLen(m.Cols, len(w))
	for i, ui := range u {
		//tcamvet:ignore floatcmp exact-zero sparse skip; entries may be negative so an ordered test would change results
		if ui == 0 {
			continue
		}
		row := m.Row(i)
		row.AddScaled(alpha*ui, w)
	}
}

// SymmetrizeUpper copies the strict upper triangle onto the lower one,
// enforcing exact symmetry after accumulation round-off.
func (m *Matrix) SymmetrizeUpper() {
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			avg := 0.5 * (m.At(i, j) + m.At(j, i))
			m.Set(i, j, avg)
			m.Set(j, i, avg)
		}
	}
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// m and b. It panics when shapes differ.
func (m *Matrix) MaxAbsDiff(b *Matrix) float64 {
	m.checkSameShape(b)
	var worst float64
	for i, x := range m.Data {
		if d := math.Abs(x - b.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func (m *Matrix) checkSameShape(b *Matrix) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("mat: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
}
