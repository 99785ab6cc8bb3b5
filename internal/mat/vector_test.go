package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVectorDot(t *testing.T) {
	tests := []struct {
		name string
		v, w Vector
		want float64
	}{
		{"empty", Vector{}, Vector{}, 0},
		{"ones", Vector{1, 1, 1}, Vector{1, 1, 1}, 3},
		{"mixed", Vector{1, -2, 3}, Vector{4, 5, -6}, 4 - 10 - 18},
		{"zeros", Vector{0, 0}, Vector{9, 9}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.Dot(tt.w); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Dot = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestVectorDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Vector{1, 2}.Dot(Vector{1})
}

func TestVectorNormalize(t *testing.T) {
	v := Vector{1, 2, 3, 4}
	sum := v.Normalize()
	if !almostEqual(sum, 10, 1e-12) {
		t.Errorf("Normalize returned sum %v, want 10", sum)
	}
	if !almostEqual(v.Sum(), 1, 1e-12) {
		t.Errorf("after Normalize, Sum = %v, want 1", v.Sum())
	}
	if !almostEqual(v[3], 0.4, 1e-12) {
		t.Errorf("v[3] = %v, want 0.4", v[3])
	}
}

func TestVectorNormalizeDegenerate(t *testing.T) {
	for _, v := range []Vector{{0, 0, 0}, {math.NaN(), 1, 1}} {
		v.Normalize()
		for i, x := range v {
			if !almostEqual(x, 1.0/3, 1e-12) {
				t.Errorf("degenerate Normalize: v[%d] = %v, want uniform 1/3", i, x)
			}
		}
	}
}

func TestVectorAddScaled(t *testing.T) {
	v := Vector{1, 2}
	v.AddScaled(2, Vector{10, 20})
	if v[0] != 21 || v[1] != 42 {
		t.Errorf("AddScaled = %v, want [21 42]", v)
	}
}

func TestVectorCloneIsIndependent(t *testing.T) {
	v := Vector{1, 2, 3}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Error("Clone shares storage with original")
	}
}

// Property: Normalize always yields a probability vector for non-empty
// inputs, regardless of the (finite, possibly negative-sum) raw values.
func TestVectorNormalizeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		v := make(Vector, len(raw))
		for i, x := range raw {
			if math.IsInf(x, 0) || math.IsNaN(x) {
				x = 0
			}
			v[i] = math.Abs(math.Mod(x, 1e6))
		}
		v.Normalize()
		return almostEqual(v.Sum(), 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Dot is symmetric and bilinear in the first argument.
func TestVectorDotSymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(n uint8) bool {
		m := int(n%16) + 1
		v, w := NewVector(m), NewVector(m)
		for i := 0; i < m; i++ {
			v[i], w[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		return almostEqual(v.Dot(w), w.Dot(v), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
