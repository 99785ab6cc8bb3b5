package topk

// Unrolled dot-product kernels behind Index.Score and TA's paired
// confirms. This file holds only straight-line kernel code: the
// scripts/check_bce.sh gate compiles it with -gcflags=-d=ssa/check_bce
// and fails on any per-element bounds check ("Found IsInBounds"). The
// loops use the slice-forward idiom — consume four elements, re-slice
// every operand by four — which the prove pass eliminates entirely;
// only the O(1) reslice checks at the loop boundaries remain.

// dotOrdered computes Σ a[i]·b[i] with a single accumulator in strictly
// ascending index order — the exact floating-point operation sequence of
// the pre-unroll scalar loop — so callers on the bit-identity path
// (Index.Score, the exact TA confirm) return unchanged values. The
// 4-wide unroll only removes loop overhead and bounds checks; it never
// reassociates the sum. b must be at least as long as a.
//
//tcam:hotpath
func dotOrdered(a, b []float64) float64 {
	b = b[:len(a)]
	var s float64
	for len(a) >= 4 && len(b) >= 4 {
		s += a[0] * b[0]
		s += a[1] * b[1]
		s += a[2] * b[2]
		s += a[3] * b[3]
		a = a[4:]
		b = b[4:]
	}
	b = b[:len(a)]
	for j, x := range a {
		s += x * b[j]
	}
	return s
}

// dotOrdered2 computes dotOrdered(q, a) and dotOrdered(q, b) in one
// pass: two single-accumulator chains, interleaved so their additions
// overlap in the pipeline, each summed in strictly ascending index order
// with dotOrdered's own operand order. Neither chain reads the other, so
// each sum is dotOrdered's bit for bit. a and b must each be at least as
// long as q.
//
//tcam:hotpath
func dotOrdered2(q, a, b []float64) (float64, float64) {
	a = a[:len(q)]
	b = b[:len(q)]
	var s, t float64
	for len(q) >= 4 && len(a) >= 4 && len(b) >= 4 {
		s += q[0] * a[0]
		t += q[0] * b[0]
		s += q[1] * a[1]
		t += q[1] * b[1]
		s += q[2] * a[2]
		t += q[2] * b[2]
		s += q[3] * a[3]
		t += q[3] * b[3]
		q = q[4:]
		a = a[4:]
		b = b[4:]
	}
	a = a[:len(q)]
	b = b[:len(q)]
	for j, x := range q {
		s += x * a[j]
		t += x * b[j]
	}
	return s, t
}
