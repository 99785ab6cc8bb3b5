package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is
// not (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// Cholesky computes the lower-triangular factor L of a symmetric positive
// definite matrix a, such that L·Lᵀ = a. Only the lower triangle of a is
// read. The returned matrix has zeros above the diagonal.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("mat: Cholesky of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			ljk := l.At(j, k)
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		inv := 1.0 / d
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s*inv)
		}
	}
	return l, nil
}

// CholeskyJittered calls Cholesky, retrying with a progressively larger
// diagonal jitter when the matrix is numerically indefinite. This is the
// standard stabilization for Gibbs-sampled precision matrices. It returns
// an error only when even a large jitter fails.
func CholeskyJittered(a *Matrix) (*Matrix, error) {
	l, err := Cholesky(a)
	if err == nil {
		return l, nil
	}
	work := a.Clone()
	jitter := 1e-10
	for try := 0; try < 12; try++ {
		for i := 0; i < work.Rows; i++ {
			work.Add(i, i, jitter)
		}
		if l, err = Cholesky(work); err == nil {
			return l, nil
		}
		jitter *= 10
	}
	return nil, err
}

// SolveLower solves L·x = b for x where L is lower triangular (forward
// substitution). b is not modified.
func SolveLower(l *Matrix, b Vector) Vector {
	n := l.Rows
	checkLen(n, len(b))
	x := NewVector(n)
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
	return x
}

// SolveUpperT solves Lᵀ·x = b for x where L is lower triangular (backward
// substitution on the implicit transpose). b is not modified.
func SolveUpperT(l *Matrix, b Vector) Vector {
	n := l.Rows
	checkLen(n, len(b))
	x := NewVector(n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// InvertSPD returns the inverse of a symmetric positive definite matrix.
func InvertSPD(a *Matrix) (*Matrix, error) {
	l, err := CholeskyJittered(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows
	inv := NewMatrix(n, n)
	e := NewVector(n)
	for j := 0; j < n; j++ {
		e.Fill(0)
		e[j] = 1
		col := SolveUpperT(l, SolveLower(l, e))
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	inv.SymmetrizeUpper()
	return inv, nil
}
