package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// The four kernels below are FactorInto, SolveVecTo, InverseFactorTo
// and InverseFromFactorTo as they stood before they ran four lanes in
// lock step, kept verbatim under a parent prefix. Every lane kernel
// computes each output as the same sum over the same operands in the
// same ascending order, so the oracle is bit equality.

func (c *Cholesky) parentFactorInto(l, a *Dense) error {
	if a.rows != a.cols {
		return ErrShape
	}
	n := a.rows
	if l.rows != n || l.cols != n {
		return ErrShape
	}
	clear(l.data)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		lrowj := l.Row(j)
		for k := 0; k < j; k++ {
			d -= lrowj[k] * lrowj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotSPD
		}
		ljj := math.Sqrt(d)
		lrowj[j] = ljj
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			lrowi := l.Row(i)
			for k := 0; k < j; k++ {
				s -= lrowi[k] * lrowj[k]
			}
			lrowi[j] = s / ljj
		}
	}
	c.n = n
	c.l = l
	return nil
}
func (c *Cholesky) parentSolveVecTo(x, b []float64) error {
	if len(b) != c.n || len(x) != c.n {
		return ErrShape
	}
	// Forward substitution: L·y = b (y stored in x).
	for i := 0; i < c.n; i++ {
		s := b[i]
		row := c.l.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
	// Back substitution: Lᵀ·x = y.
	for i := c.n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < c.n; k++ {
			s -= c.l.At(k, i) * x[k]
		}
		x[i] = s / c.l.At(i, i)
	}
	return nil
}
func (c *Cholesky) parentInverseFactorTo(u *Dense) error {
	n := c.n
	if u.rows != n || u.cols != n {
		return ErrShape
	}
	// Forward substitution down column j of L⁻¹:
	// L⁻¹_ij = −(Σ_{j ≤ k < i} L_ik·L⁻¹_kj) / L_ii.
	for j := 0; j < n; j++ {
		ljj := c.l.At(j, j)
		if ljj == 0 {
			return ErrNotSPD
		}
		urow := u.Row(j)
		urow[j] = 1 / ljj
		for i := j + 1; i < n; i++ {
			lrow := c.l.Row(i)
			ur := urow[j:i]
			lr := lrow[j:i:i]
			var s float64
			for k, uk := range ur {
				s += lr[k] * uk
			}
			urow[i] = -s / lrow[i]
		}
	}
	return nil
}

func parentInverseFromFactorTo(inv, u *Dense) error {
	n := u.rows
	if u.cols != n || inv.rows != n || inv.cols != n {
		return ErrShape
	}
	for i := 0; i < n; i++ {
		ui := u.Row(i)
		for j := i; j < n; j++ {
			uj := u.Row(j)[j:]
			var s float64
			for m, v := range ui[j:] {
				s += v * uj[m]
			}
			inv.data[i*n+j] = s
			inv.data[j*n+i] = s
		}
	}
	return nil
}

// laneFixture returns a seeded n×n test matrix of one of three kinds:
// a random SPD matrix; a noiseless squared-exponential covariance whose
// points come in near-duplicate pairs, so that it is numerically
// singular until a jitter rung lifts it, as in the GP fit; and the same
// covariance over independent points.
func laneFixture(rng *rand.Rand, n, kind int) *Dense {
	if kind == 0 {
		return randomSPD(rng, n)
	}
	const dim = 3
	x := make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, dim)
		for d := range x[i] {
			if kind == 1 && i%2 == 1 {
				x[i][d] = x[i-1][d] + 1e-9*rng.NormFloat64()
			} else {
				x[i][d] = rng.NormFloat64()
			}
		}
	}
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var r2 float64
			for d := range x[i] {
				t := x[i][d] - x[j][d]
				r2 += t * t
			}
			a.Set(i, j, 1.7*1.7*math.Exp(-0.5*r2/(0.9*0.9)))
		}
	}
	return a
}

func dirty(n int) *Dense {
	m := NewDense(n, n)
	for i := range m.data {
		m.data[i] = math.NaN()
	}
	return m
}

func requireSameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), parent %v (%#x)", label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkAgainstParent factors a with the lane kernel and the parent one
// on dirty scratch and holds the error, L, α = A⁻¹·b (in place, as the
// GP fit aliases it), the upper triangle of (L⁻¹)ᵀ and A⁻¹ bit-equal.
// It reports whether a factored.
func checkAgainstParent(t *testing.T, label string, a *Dense, b []float64) bool {
	t.Helper()
	n := a.rows
	var got, want Cholesky
	gerr, werr := got.FactorInto(dirty(n), a), want.parentFactorInto(dirty(n), a)
	if !errors.Is(gerr, werr) || !errors.Is(werr, gerr) {
		t.Fatalf("%s: FactorInto error %v, parent %v", label, gerr, werr)
	}
	if werr != nil {
		return false
	}
	requireSameBits(t, label+" L", got.l.data, want.l.data)

	galpha, walpha := append([]float64(nil), b...), make([]float64, n)
	if err := got.SolveVecTo(galpha, galpha); err != nil {
		t.Fatal(err)
	}
	if err := want.parentSolveVecTo(walpha, b); err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, label+" α", galpha, walpha)

	gu, wu := dirty(n), dirty(n)
	gerr, werr = got.InverseFactorTo(gu), want.parentInverseFactorTo(wu)
	if gerr != werr {
		t.Fatalf("%s: InverseFactorTo error %v, parent %v", label, gerr, werr)
	}
	if werr != nil {
		return true
	}
	for i := 0; i < n; i++ {
		requireSameBits(t, label+" (L⁻¹)ᵀ row", gu.Row(i)[i:], wu.Row(i)[i:])
	}
	ginv, winv := dirty(n), dirty(n)
	if err := InverseFromFactorTo(ginv, gu); err != nil {
		t.Fatal(err)
	}
	if err := parentInverseFromFactorTo(winv, wu); err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, label+" A⁻¹", ginv.data, winv.data)
	return true
}

// Every n from 1 to 67 covers each remainder mod 4 of the lane groups
// many times over. Each size runs a random SPD matrix, a near-duplicate
// covariance up the GP fit's jitter ladder, a well-separated one, and
// one pivot failure (a negative and a NaN pivot) at every column
// position, in FactorInto and in InverseFactorTo.
func TestLaneKernelsMatchParent(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	jitters := []float64{0, 1e-10, 1e-8, 1e-6, 1e-4}
	var walked int
	for n := 1; n <= 67; n++ {
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		for kind := 0; kind < 3; kind++ {
			a := laneFixture(rng, n, kind)
			for r, jit := range jitters {
				aj := a.Clone()
				_ = AddDiagonal(aj, jit)
				if checkAgainstParent(t, "fixture", aj, b) {
					walked += r
					break
				}
			}
		}
		spd := laneFixture(rng, n, 0)
		for p := 0; p < n; p++ {
			for _, bad := range []float64{-1, math.NaN()} {
				a := spd.Clone()
				a.Set(p, p, bad)
				if checkAgainstParent(t, "bad pivot", a, b) {
					t.Fatalf("n=%d: pivot %v at column %d factored", n, bad, p)
				}
			}
			var c Cholesky
			if err := c.FactorInto(NewDense(n, n), spd); err != nil {
				t.Fatal(err)
			}
			c.l.Set(p, p, 0)
			gerr, werr := c.InverseFactorTo(dirty(n)), c.parentInverseFactorTo(dirty(n))
			if gerr != ErrNotSPD || werr != ErrNotSPD {
				t.Fatalf("n=%d: zero L[%d][%d]: InverseFactorTo error %v, parent %v", n, p, p, gerr, werr)
			}
		}
	}
	if walked == 0 {
		t.Fatal("no near-duplicate fixture needed a jitter rung; the ladder went untested")
	}
}

// FuzzCholeskyLanes holds the lane kernels to the parent ones on
// B·Bᵀ + shift·I for a seeded random n×n B: a shift far below zero
// fails the factorization at the first column, one near −n·λ_min at a
// later one, and NaN or ±Inf at once.
func FuzzCholeskyLanes(f *testing.F) {
	f.Add(uint8(1), int64(1), 1.0)
	f.Add(uint8(5), int64(2), 0.0)
	f.Add(uint8(14), int64(3), -0.5)
	f.Add(uint8(33), int64(4), 1e-12)
	f.Add(uint8(47), int64(5), -1e3)
	f.Add(uint8(8), int64(6), math.NaN())
	f.Add(uint8(9), int64(7), math.Inf(1))
	f.Fuzz(func(t *testing.T, n uint8, seed int64, shift float64) {
		size := int(n%67) + 1
		rng := rand.New(rand.NewSource(seed))
		b := NewDense(size, size)
		for i := range b.data {
			b.data[i] = rng.NormFloat64()
		}
		a := mul(b, b.T())
		_ = AddDiagonal(a, shift)
		rhs := make([]float64, size)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		checkAgainstParent(t, "fuzz", a, rhs)
	})
}
