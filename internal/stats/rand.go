// Package stats provides the probability and statistics substrate for the
// TCAM reproduction: random samplers (Gamma, Beta, Dirichlet, Poisson,
// Zipf, categorical, Wishart), descriptive statistics and empirical
// CDFs. Everything is deterministic
// given an explicit *rand.Rand, which the experiment harness seeds so
// every paper artifact regenerates bit-for-bit.
package stats

import (
	"math"
	"math/rand"

	"tcam/internal/mat"
)

// Gamma draws one sample from a Gamma(shape, rate) distribution (mean =
// shape/rate) using the Marsaglia–Tsang method, with the standard boost
// for shape < 1. It panics when shape or rate are not positive.
func Gamma(rng *rand.Rand, shape, rate float64) float64 {
	if shape <= 0 || rate <= 0 {
		panic("stats: Gamma requires positive shape and rate")
	}
	if shape < 1 {
		// Boosting: G(a) = G(a+1) · U^{1/a}.
		u := rng.Float64()
		for u <= 0 {
			u = rng.Float64()
		}
		return Gamma(rng, shape+1, rate) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v / rate
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v / rate
		}
	}
}

// Beta draws one sample from a Beta(a, b) distribution.
func Beta(rng *rand.Rand, a, b float64) float64 {
	x := Gamma(rng, a, 1)
	y := Gamma(rng, b, 1)
	return x / (x + y)
}

// SymmetricDirichlet draws a Dirichlet sample of dimension n with every
// concentration parameter equal to alpha.
func SymmetricDirichlet(rng *rand.Rand, n int, alpha float64) mat.Vector {
	out := mat.NewVector(n)
	for i := range out {
		out[i] = Gamma(rng, alpha, 1)
	}
	out.Normalize()
	return out
}

// Poisson draws one sample from a Poisson distribution with the given
// mean, using Knuth's method for small means and a normal approximation
// (rounded, clamped at zero) for large ones.
func Poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		n := int(math.Round(mean + math.Sqrt(mean)*rng.NormFloat64()))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Categorical draws an index in [0, len(weights)) with probability
// proportional to weights[i]. Weights need not be normalized; negative
// weights are treated as zero. When the total mass is zero it returns a
// uniform draw.
func Categorical(rng *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return rng.Intn(len(weights))
	}
	u := rng.Float64() * total
	var cum float64
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		cum += w
		if u < cum {
			return i
		}
	}
	return len(weights) - 1
}

// Zipf returns an n-element probability vector p[i] ∝ 1/(i+1)^s, the
// standard popularity skew for social-media item catalogs.
func Zipf(n int, s float64) mat.Vector {
	p := mat.NewVector(n)
	for i := range p {
		p[i] = 1 / math.Pow(float64(i+1), s)
	}
	p.Normalize()
	return p
}

// Wishart draws one sample from a Wishart distribution with the given
// degrees of freedom and scale matrix, using the Bartlett decomposition.
// scaleChol is the lower Cholesky factor of the scale matrix. The degrees
// of freedom must be at least the dimension.
func Wishart(rng *rand.Rand, df float64, scaleChol *mat.Matrix) *mat.Matrix {
	n := scaleChol.Rows
	if df < float64(n) {
		panic("stats: Wishart degrees of freedom below dimension")
	}
	// Bartlett: A lower-triangular with A(i,i) ~ sqrt(chi2(df-i)) and
	// A(i,j) ~ N(0,1) for j < i. Then W = L·A·Aᵀ·Lᵀ.
	a := mat.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, math.Sqrt(ChiSquared(rng, df-float64(i))))
		for j := 0; j < i; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	la := scaleChol.Mul(a)
	w := la.Mul(la.T())
	w.SymmetrizeUpper()
	return w
}

// ChiSquared draws one sample from a chi-squared distribution with k
// degrees of freedom (k need not be an integer).
func ChiSquared(rng *rand.Rand, k float64) float64 {
	return Gamma(rng, k/2, 0.5)
}
