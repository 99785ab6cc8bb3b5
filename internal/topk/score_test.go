package topk

import (
	"math"
	"math/rand"
	"testing"
)

// kernelValue draws one operand of the kinds a kernel must sum exactly:
// zeros, subnormals, magnitudes spread over most of the exponent range
// (so any regrouping of the sum rounds differently), and plain values,
// of either sign.
func kernelValue(rng *rand.Rand) float64 {
	var x float64
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		x = float64(1+rng.Intn(1<<20)) * 0x1p-1074
	case 2:
		x = math.Ldexp(1+rng.Float64(), rng.Intn(1000)-500)
	default:
		x = rng.Float64()
	}
	if rng.Intn(2) == 0 {
		x = -x
	}
	return x
}

// TestDotOrdered2MatchesDotOrdered: the paired kernel TA confirms its
// first k candidates with returns, for each row, dotOrdered's bits —
// over every length from 0 to 70, multiples of four or not, with zeros,
// subnormals and widely spread magnitudes, and rows longer than the
// query as the kernels allow.
func TestDotOrdered2MatchesDotOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draw := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = kernelValue(rng)
		}
		return v
	}
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 200; trial++ {
			q, a, b := draw(n), draw(n+rng.Intn(3)), draw(n+rng.Intn(3))
			gotA, gotB := dotOrdered2(q, a, b)
			wantA, wantB := dotOrdered(q, a), dotOrdered(q, b)
			if math.Float64bits(gotA) != math.Float64bits(wantA) || math.Float64bits(gotB) != math.Float64bits(wantB) {
				t.Fatalf("n=%d trial %d: dotOrdered2 = (%v, %v), dotOrdered = (%v, %v)", n, trial, gotA, gotB, wantA, wantB)
			}
		}
	}
}
