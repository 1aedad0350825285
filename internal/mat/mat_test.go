package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func randomSPD(rng *rand.Rand, n int) *Dense {
	// A = B·Bᵀ + n·I is SPD for any B.
	b := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	a := mul(b, b.T())
	_ = AddDiagonal(a, float64(n))
	return a
}

func TestNewDensePanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0×3 matrix")
		}
	}()
	NewDense(0, 3)
}

func TestNewDenseDataPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	NewDenseData(2, 2, []float64{1, 2, 3})
}

func TestAtSetRow(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 7)
	if got := m.At(1, 2); got != 7 {
		t.Fatalf("At(1,2) = %v, want 7", got)
	}
	row := m.Row(1)
	if row[2] != 7 {
		t.Fatalf("Row(1)[2] = %v, want 7", row[2])
	}
	row[0] = 5 // views alias the matrix
	if m.At(1, 0) != 5 {
		t.Fatal("Row must be a view, not a copy")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not alias the original")
	}
}

func TestTranspose(t *testing.T) {
	m := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tt := m.T()
	r, c := tt.Dims()
	if r != 3 || c != 2 {
		t.Fatalf("T dims = %d×%d, want 3×2", r, c)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tt.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomSPD(rng, 5)
	eye := NewDense(5, 5)
	for i := 0; i < 5; i++ {
		eye.Set(i, i, 1)
	}
	p := mul(a, eye)
	if d, _ := MaxAbsDiff(a, p); d != 0 {
		t.Fatalf("A·I != A (max diff %g)", d)
	}
}

func TestMulShapeError(t *testing.T) {
	a := NewDense(2, 3)
	if err := MulTo(NewDense(2, 3), a, NewDense(2, 3)); err != ErrShape {
		t.Fatalf("MulTo shape error = %v, want ErrShape", err)
	}
	if err := MulVecTo(make([]float64, 2), a, []float64{1}); err != ErrShape {
		t.Fatalf("MulVecTo with a short x = %v, want ErrShape", err)
	}
	if err := MulVecTo(make([]float64, 3), a, []float64{1, 1, 1}); err != ErrShape {
		t.Fatalf("MulVecTo with a long out = %v, want ErrShape", err)
	}
}

func TestMulVec(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if y := mulVec(a, []float64{1, 1, 1}); y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVecTo = %v, want [6 15]", y)
	}
}

// mulVec returns a·x.
func mulVec(a *Dense, x []float64) []float64 {
	out := make([]float64, a.rows)
	if err := MulVecTo(out, a, x); err != nil {
		panic(err)
	}
	return out
}

// mul returns a·b.
func mul(a, b *Dense) *Dense {
	out := NewDense(a.rows, b.cols)
	if err := MulTo(out, a, b); err != nil {
		panic(err)
	}
	return out
}

// solveSPDVec factors a and solves a·x = b.
func solveSPDVec(a *Dense, b []float64) ([]float64, error) {
	ch, err := NewCholesky(a)
	if err != nil {
		return nil, err
	}
	return ch.SolveVec(b)
}

func TestDotNorm(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot wrong")
	}
	if !almostEqual(Norm2([]float64{3, 4}), 5, 1e-15) {
		t.Fatal("Norm2 wrong")
	}
}

func TestAXPYScale(t *testing.T) {
	y := []float64{1, 1}
	AXPY(2, []float64{1, 2}, y)
	if y[0] != 3 || y[1] != 5 {
		t.Fatalf("AXPY = %v", y)
	}
	Scale(0.5, y)
	if y[0] != 1.5 || y[1] != 2.5 {
		t.Fatalf("Scale = %v", y)
	}
}

func TestCholeskyReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= 12; n++ {
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		llt := mul(ch.L(), ch.L().T())
		d, _ := MaxAbsDiff(a, llt)
		if d > 1e-9*float64(n) {
			t.Fatalf("n=%d: L·Lᵀ differs from A by %g", n, d)
		}
	}
}

func TestCholeskyNotSPD(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 2, 1}) // indefinite
	if _, err := NewCholesky(a); err != ErrNotSPD {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
	b := NewDense(2, 3)
	if _, err := NewCholesky(b); err != ErrShape {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestCholeskySolveVec(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSPD(rng, 8)
	xTrue := make([]float64, 8)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := mulVec(a, xTrue)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := ch.SolveVec(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if !almostEqual(x[i], xTrue[i], 1e-8) {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
}

func TestCholeskySolveMatrixAndInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomSPD(rng, 6)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := ch.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	prod := mul(a, inv)
	eye := NewDense(6, 6)
	for i := 0; i < 6; i++ {
		eye.Set(i, i, 1)
	}
	d, _ := MaxAbsDiff(prod, eye)
	if d > 1e-8 {
		t.Fatalf("A·A⁻¹ differs from I by %g", d)
	}

	// Solve with a matrix RHS agrees with column-by-column solves.
	b := NewDense(6, 2)
	for i := 0; i < 6; i++ {
		b.Set(i, 0, rng.NormFloat64())
		b.Set(i, 1, rng.NormFloat64())
	}
	x, err := ch.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	ax := mul(a, x)
	d, _ = MaxAbsDiff(ax, b)
	if d > 1e-8 {
		t.Fatalf("A·X differs from B by %g", d)
	}
}

func TestCholeskyLogDet(t *testing.T) {
	// diag(2, 3) has det 6.
	a := NewDenseData(2, 2, []float64{2, 0, 0, 3})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(ch.LogDet(), math.Log(6), 1e-12) {
		t.Fatalf("LogDet = %v, want log 6", ch.LogDet())
	}
}

func TestSolveSPDVec(t *testing.T) {
	a := NewDenseData(2, 2, []float64{4, 0, 0, 9})
	x, err := solveSPDVec(a, []float64{8, 27})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 2, 1e-12) || !almostEqual(x[1], 3, 1e-12) {
		t.Fatalf("x = %v", x)
	}
}

func TestAddDiagonalAndSymmetrize(t *testing.T) {
	a := NewDense(2, 2)
	if err := AddDiagonal(a, 1.5); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 1.5 || a.At(1, 1) != 1.5 || a.At(0, 1) != 0 {
		t.Fatal("AddDiagonal wrong")
	}
	b := NewDenseData(2, 2, []float64{1, 2, 4, 1})
	if err := SymmetrizeInPlace(b); err != nil {
		t.Fatal(err)
	}
	if b.At(0, 1) != 3 || b.At(1, 0) != 3 {
		t.Fatal("SymmetrizeInPlace wrong")
	}
	if err := AddDiagonal(NewDense(2, 3), 1); err != ErrShape {
		t.Fatal("expected ErrShape")
	}
	if err := SymmetrizeInPlace(NewDense(2, 3)); err != ErrShape {
		t.Fatal("expected ErrShape")
	}
}

// Property: for random SPD systems, solving then multiplying recovers
// the right-hand side.
func TestQuickCholeskyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a := randomSPD(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := solveSPDVec(a, b)
		if err != nil {
			return false
		}
		ax := mulVec(a, x)
		for i := range b {
			if !almostEqual(ax[i], b[i], 1e-7*float64(n)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: log|A| from Cholesky matches the product of eigenvalue
// surrogates for diagonal matrices.
func TestQuickLogDetDiagonal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := NewDense(n, n)
		want := 0.0
		for i := 0; i < n; i++ {
			v := 0.5 + rng.Float64()*4
			a.Set(i, i, v)
			want += math.Log(v)
		}
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		return almostEqual(ch.LogDet(), want, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refInverseTo is InverseTo before it was split in two: L⁻¹ stored by
// columns in the lower triangle, read back through At.
func refInverseTo(c *Cholesky, inv, linv *Dense) error {
	n := c.n
	for j := 0; j < n; j++ {
		ljj := c.l.At(j, j)
		if ljj == 0 {
			return ErrNotSPD
		}
		linv.Set(j, j, 1/ljj)
		for i := j + 1; i < n; i++ {
			lrow := c.l.Row(i)
			var s float64
			for k := j; k < i; k++ {
				s += lrow[k] * linv.At(k, j)
			}
			linv.Set(i, j, -s/lrow[i])
		}
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var s float64
			for m := j; m < n; m++ {
				s += linv.At(m, i) * linv.At(m, j)
			}
			inv.Set(i, j, s)
			inv.Set(j, i, s)
		}
	}
	return nil
}

// The split inverse (factor-inverse half, then fill or diagonal) is
// bit-identical to the unsplit one, on dirty scratch.
func TestInverseHalvesMatchUnsplitBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 2, 3, 7, 16, 33} {
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		want, wantL := NewDense(n, n), NewDense(n, n)
		if err := refInverseTo(ch, want, wantL); err != nil {
			t.Fatal(err)
		}
		inv, u := NewDense(n, n), NewDense(n, n)
		for i := range inv.data {
			inv.data[i], u.data[i] = math.NaN(), math.NaN()
		}
		if err := ch.InverseTo(inv, u); err != nil {
			t.Fatal(err)
		}
		d := make([]float64, n)
		if err := InverseDiagTo(d, u); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if math.Float64bits(d[i]) != math.Float64bits(want.At(i, i)) {
				t.Fatalf("n=%d: diag[%d] %v != %v", n, i, d[i], want.At(i, i))
			}
			for j := 0; j < n; j++ {
				if math.Float64bits(inv.At(i, j)) != math.Float64bits(want.At(i, j)) {
					t.Fatalf("n=%d: inv[%d][%d] %v != %v", n, i, j, inv.At(i, j), want.At(i, j))
				}
				if j >= i && math.Float64bits(u.At(i, j)) != math.Float64bits(wantL.At(j, i)) {
					t.Fatalf("n=%d: U[%d][%d] %v != L⁻¹[%d][%d] %v", n, i, j, u.At(i, j), j, i, wantL.At(j, i))
				}
			}
		}
	}
	if err := InverseDiagTo(make([]float64, 2), NewDense(3, 3)); err != ErrShape {
		t.Fatalf("InverseDiagTo shape err = %v", err)
	}
	if err := InverseFromFactorTo(NewDense(2, 2), NewDense(3, 3)); err != ErrShape {
		t.Fatalf("InverseFromFactorTo shape err = %v", err)
	}
}

func BenchmarkCholesky32(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	a := randomSPD(rng, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}
