// Package mat provides the dense linear-algebra substrate used by the
// TCAM reproduction: vectors, row-major matrices, Cholesky factorization
// and triangular solves.
//
// Go's standard library has no numeric linear algebra, and the module is
// built offline with stdlib only, so the operations needed by the BPTF
// Gibbs sampler (multivariate Gaussian sampling, precision-matrix solves)
// and by the EM initializers are implemented here from scratch. The
// package favors clarity and predictable allocation behavior over raw
// BLAS-level speed: factor dimensions in the paper's models are small
// (tens), while the data dimension (millions of ratings) is handled by
// streaming code in the model packages.
package mat

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector. The zero value is an empty vector.
type Vector []float64

// NewVector returns a zero-initialized vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Fill sets every element of v to c.
func (v Vector) Fill(c float64) {
	for i := range v {
		v[i] = c
	}
}

// AddTo accumulates w into v element-wise. It panics if lengths differ.
func (v Vector) AddTo(w Vector) {
	checkLen(len(v), len(w))
	for i, x := range w {
		v[i] += x
	}
}

// AddScaled accumulates alpha*w into v element-wise.
func (v Vector) AddScaled(alpha float64, w Vector) {
	checkLen(len(v), len(w))
	for i, x := range w {
		v[i] += alpha * x
	}
}

// Scale multiplies every element of v by alpha.
func (v Vector) Scale(alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Dot returns the inner product of v and w. It panics if lengths differ.
func (v Vector) Dot(w Vector) float64 {
	checkLen(len(v), len(w))
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Sum returns the sum of the elements of v.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Normalize rescales v in place so its elements sum to one. If the sum is
// not positive, v is set to the uniform distribution. It returns the
// original sum, which callers can use to detect degenerate inputs.
func (v Vector) Normalize() float64 {
	s := v.Sum()
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		u := 1.0 / float64(len(v))
		for i := range v {
			v[i] = u
		}
		return s
	}
	inv := 1.0 / s
	for i := range v {
		v[i] *= inv
	}
	return s
}

func checkLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("mat: length mismatch %d != %d", a, b))
	}
}
