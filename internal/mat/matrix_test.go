package mat

import (
	"math/rand"
	"testing"
)

func TestMatrixMul(t *testing.T) {
	a := NewMatrix(2, 3)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	b := NewMatrix(3, 2)
	copy(b.Data, []float64{7, 8, 9, 10, 11, 12})
	c := a.Mul(b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if !almostEqual(c.Data[i], w, 1e-12) {
			t.Errorf("Mul Data[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatrixMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewMatrix(4, 4)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	got := a.Mul(Identity(4))
	if d := got.MaxAbsDiff(a); d > 1e-12 {
		t.Errorf("A·I differs from A by %v", d)
	}
}

func TestMatrixMulVec(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 2, 3, 4})
	got := a.MulVec(Vector{5, 6})
	if got[0] != 17 || got[1] != 39 {
		t.Errorf("MulVec = %v, want [17 39]", got)
	}
}

func TestMatrixTranspose(t *testing.T) {
	a := NewMatrix(2, 3)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("T shape = %dx%d, want 3x2", at.Rows, at.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Errorf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMatrixRowSharesStorage(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Row(1)[0] = 42
	if a.At(1, 0) != 42 {
		t.Error("Row does not share storage")
	}
}

func TestMatrixOuterAdd(t *testing.T) {
	m := NewMatrix(2, 2)
	m.OuterAdd(2, Vector{1, 3}, Vector{5, 7})
	want := []float64{10, 14, 30, 42}
	for i, w := range want {
		if m.Data[i] != w {
			t.Errorf("OuterAdd Data[%d] = %v, want %v", i, m.Data[i], w)
		}
	}
}

func TestMatrixSymmetrizeUpper(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float64{1, 4, 2, 1})
	m.SymmetrizeUpper()
	if m.At(0, 1) != 3 || m.At(1, 0) != 3 {
		t.Errorf("SymmetrizeUpper off-diagonals = (%v,%v), want (3,3)", m.At(0, 1), m.At(1, 0))
	}
}

func TestMatrixMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner-dimension mismatch")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 3))
}

func randSPD(rng *rand.Rand, n int) *Matrix {
	// A = Bᵀ·B + n·I is SPD for any B.
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := b.T().Mul(b)
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 5, 8, 16} {
		a := randSPD(rng, n)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: Cholesky: %v", n, err)
		}
		recon := l.Mul(l.T())
		if d := recon.MaxAbsDiff(a); d > 1e-8 {
			t.Errorf("n=%d: L·Lᵀ differs from A by %v", n, d)
		}
		// Strict upper triangle must be zero.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 {
					t.Errorf("n=%d: L(%d,%d) = %v, want 0", n, i, j, l.At(i, j))
				}
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 2, 2, 1}) // eigenvalues 3 and -1
	if _, err := Cholesky(a); err == nil {
		t.Error("Cholesky accepted an indefinite matrix")
	}
}

func TestCholeskyRejectsNonSquare(t *testing.T) {
	if _, err := Cholesky(NewMatrix(2, 3)); err == nil {
		t.Error("Cholesky accepted a non-square matrix")
	}
}

func TestCholeskyJitteredRecoversSemidefinite(t *testing.T) {
	// Rank-deficient PSD matrix: outer product of a single vector.
	a := NewMatrix(3, 3)
	a.OuterAdd(1, Vector{1, 2, 3}, Vector{1, 2, 3})
	l, err := CholeskyJittered(a)
	if err != nil {
		t.Fatalf("CholeskyJittered: %v", err)
	}
	if d := l.Mul(l.T()).MaxAbsDiff(a); d > 1e-4 {
		t.Errorf("jittered reconstruction off by %v", d)
	}
}

func TestInvertSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randSPD(rng, 6)
	inv, err := InvertSPD(a)
	if err != nil {
		t.Fatalf("InvertSPD: %v", err)
	}
	if d := a.Mul(inv).MaxAbsDiff(Identity(6)); d > 1e-8 {
		t.Errorf("A·A⁻¹ differs from I by %v", d)
	}
}

func TestSolveLowerUpper(t *testing.T) {
	l := NewMatrix(2, 2)
	copy(l.Data, []float64{2, 0, 1, 3})
	x := SolveLower(l, Vector{4, 7})
	if !almostEqual(x[0], 2, 1e-12) || !almostEqual(x[1], 5.0/3, 1e-12) {
		t.Errorf("SolveLower = %v", x)
	}
	y := SolveUpperT(l, Vector{4, 6})
	// Lᵀ = [[2,1],[0,3]]; y2 = 2, y1 = (4-2)/2 = 1.
	if !almostEqual(y[1], 2, 1e-12) || !almostEqual(y[0], 1, 1e-12) {
		t.Errorf("SolveUpperT = %v", y)
	}
}
