package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tcam/internal/mat"
)

func TestGammaMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tests := []struct{ shape, rate float64 }{
		{0.5, 1}, {1, 2}, {3, 1}, {9, 3}, {50, 10},
	}
	const n = 30000
	for _, tt := range tests {
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			x := Gamma(rng, tt.shape, tt.rate)
			if x < 0 {
				t.Fatalf("Gamma(%v,%v) produced negative sample %v", tt.shape, tt.rate, x)
			}
			sum += x
			sumSq += x * x
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		wantMean := tt.shape / tt.rate
		wantVar := tt.shape / (tt.rate * tt.rate)
		if math.Abs(mean-wantMean) > 0.05*wantMean+0.01 {
			t.Errorf("Gamma(%v,%v) mean = %v, want ≈%v", tt.shape, tt.rate, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.15*wantVar+0.02 {
			t.Errorf("Gamma(%v,%v) var = %v, want ≈%v", tt.shape, tt.rate, variance, wantVar)
		}
	}
}

func TestGammaPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive shape")
		}
	}()
	Gamma(rand.New(rand.NewSource(1)), 0, 1)
}

func TestBetaRangeAndMean(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		x := Beta(rng, 2, 5)
		if x < 0 || x > 1 {
			t.Fatalf("Beta sample %v outside [0,1]", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-2.0/7) > 0.01 {
		t.Errorf("Beta(2,5) mean = %v, want ≈%v", mean, 2.0/7)
	}
}

func TestDirichletSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		p := SymmetricDirichlet(rng, 4, []float64{0.5, 2, 1, 4}[trial%4])
		if math.Abs(p.Sum()-1) > 1e-9 {
			t.Fatalf("Dirichlet sample sums to %v", p.Sum())
		}
		for _, x := range p {
			if x < 0 {
				t.Fatalf("Dirichlet produced negative coordinate %v", x)
			}
		}
	}
}

func TestSymmetricDirichletConcentration(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Very small alpha concentrates mass on few coordinates; large alpha
	// approaches uniform. Compare the largest coordinates.
	peak := func(p mat.Vector) (best float64) {
		for _, x := range p {
			best = max(best, x)
		}
		return best
	}
	sparse, dense := peak(SymmetricDirichlet(rng, 50, 0.01)), peak(SymmetricDirichlet(rng, 50, 100))
	if sparse <= dense {
		t.Errorf("peak(alpha=0.01)=%v should exceed peak(alpha=100)=%v", sparse, dense)
	}
}

func TestPoissonMean(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, mean := range []float64{0.5, 3, 20, 200} {
		const n = 20000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(Poisson(rng, mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Errorf("Poisson(%v) mean = %v", mean, got)
		}
	}
	if Poisson(rng, 0) != 0 || Poisson(rng, -1) != 0 {
		t.Error("Poisson with non-positive mean should return 0")
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	weights := []float64{1, 0, 3, 6}
	counts := make([]int, len(weights))
	const n = 50000
	for i := 0; i < n; i++ {
		counts[Categorical(rng, weights)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight category sampled %d times", counts[1])
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("category %d frequency = %v, want ≈%v", i, got, want)
		}
	}
}

func TestCategoricalZeroMassUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		counts[Categorical(rng, []float64{0, 0, 0, 0})]++
	}
	for i, c := range counts {
		if c < 700 {
			t.Errorf("zero-mass fallback category %d drawn only %d/4000 times", i, c)
		}
	}
}

func TestZipf(t *testing.T) {
	p := Zipf(100, 1.0)
	if math.Abs(p.Sum()-1) > 1e-9 {
		t.Fatalf("Zipf sums to %v", p.Sum())
	}
	for i := 1; i < len(p); i++ {
		if p[i] > p[i-1] {
			t.Fatalf("Zipf not monotone at %d", i)
		}
	}
	if math.Abs(p[0]/p[1]-2) > 1e-9 {
		t.Errorf("Zipf(s=1) head ratio = %v, want 2", p[0]/p[1])
	}
}

func TestWishartExpectation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// E[W] = df · Scale.
	scale := mat.NewMatrix(2, 2)
	copy(scale.Data, []float64{1, 0.3, 0.3, 0.5})
	l, err := mat.Cholesky(scale)
	if err != nil {
		t.Fatal(err)
	}
	df := 7.0
	sum := mat.NewMatrix(2, 2)
	const n = 5000
	for i := 0; i < n; i++ {
		w := Wishart(rng, df, l)
		sum.AddMatrix(1, w)
	}
	sum.Scale(1.0 / n)
	want := scale.Clone()
	want.Scale(df)
	if d := sum.MaxAbsDiff(want); d > 0.15 {
		t.Errorf("Wishart mean off by %v from df·Scale", d)
	}
}

func TestWishartPanicsBelowDimension(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when df < dimension")
		}
	}()
	Wishart(rand.New(rand.NewSource(1)), 1, mat.Identity(3))
}

// Property: Dirichlet samples always lie on the probability simplex for
// any dimension and positive concentration.
func TestDirichletSimplexProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(dims uint8, conc uint16) bool {
		p := SymmetricDirichlet(rng, int(dims%20)+1, 0.01+float64(conc%1000)/100)
		if math.Abs(p.Sum()-1) > 1e-9 {
			return false
		}
		for _, x := range p {
			if x < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
