// Package mat provides the small dense linear-algebra kernel used by the
// Gaussian Process predictors: column-dense matrices, Cholesky
// factorization of symmetric positive definite systems, triangular
// solves, SPD inversion and log-determinants.
//
// The package is deliberately minimal — it implements exactly the
// operations the semi-lazy GP needs on k×k systems (k is the number of
// nearest neighbours, typically 8–128) and favours clarity and numeric
// robustness over asymptotic tricks. All matrices are row-major.
//
// SPD inversion comes in two halves so a caller can stop after the
// first: InverseFactorTo leaves (L⁻¹)ᵀ by rows in InverseTo's scratch
// (upper triangle), from which InverseDiagTo reads diag(A⁻¹) in O(n²)
// and InverseFromFactorTo fills the whole of A⁻¹ with contiguous row
// dot products. InverseTo is the two halves back to back.
//
// Summation order is the invariant. Every output of every kernel is one
// sum over fixed operands in ascending index order, starting from the
// entry it updates (or from +0), each step written as the same
// s ± a·b. A rewrite that keeps each output's operands and order keeps
// its bits on every platform, and with them the GP's forecasts. Speed
// comes from running independent outputs side by side, never from
// reordering one: FactorInto, InverseFactorTo and InverseFromFactorTo
// each run four sums in lock step over a shared row.
// kernel_oracle_test.go holds them to the one-sum-at-a-time kernels
// they replaced.
package mat

import (
	"errors"
	"fmt"
	"math"

	"smiler/internal/memsys"
)

// ErrNotSPD is returned by Cholesky-based routines when the input matrix
// is not (numerically) symmetric positive definite.
var ErrNotSPD = errors.New("mat: matrix is not positive definite")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("mat: dimension mismatch")

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
	pooled     bool // data came from memsys; Release returns it
}

// NewDense allocates an r×c zero matrix.
func NewDense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %d×%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// GetDense allocates an r×c zero matrix whose backing slab comes from
// the memsys pool. It is interchangeable with NewDense (a pooled slab
// is zeroed on Get); Release returns the slab. Never calling Release is
// safe — the slab is ordinary garbage — it just forfeits the reuse.
func GetDense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %d×%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: memsys.GetFloats(r * c), pooled: true}
}

// Release returns a pooled matrix's slab to memsys. Idempotent: the
// first call detaches the backing data (subsequent At/Set panic loudly
// instead of corrupting a recycled slab), later calls are no-ops. A
// no-op on matrices from NewDense/NewDenseData.
func (m *Dense) Release() {
	if m == nil || !m.pooled || m.data == nil {
		return
	}
	d := m.data
	m.data = nil
	memsys.PutFloats(d)
}

// NewDenseData wraps data (length r*c, row-major) without copying.
func NewDenseData(r, c int, data []float64) *Dense {
	m := new(Dense)
	m.SetData(r, c, data)
	return m
}

// SetData makes m wrap data (length r*c, row-major) without copying:
// NewDenseData for a Dense held by value, so a scratch struct can embed
// its matrices instead of allocating one header each.
func (m *Dense) SetData(r, c int, data []float64) {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d != %d×%d", len(data), r, c))
	}
	*m = Dense{rows: r, cols: c, data: data}
}

// Dims returns the matrix dimensions.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns a view of row i (not a copy).
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Data returns the underlying row-major backing slice (not a copy).
func (m *Dense) Data() []float64 { return m.data }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: d}
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// MulTo computes a*b into out, which must be a.rows×b.cols and may be
// dirty (it is cleared first). out must not alias a or b.
func MulTo(out, a, b *Dense) error {
	if a.cols != b.rows || out.rows != a.rows || out.cols != b.cols {
		return ErrShape
	}
	clear(out.data)
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return nil
}

// MulVecTo computes a·x into out (length a.rows). out must not alias x.
func MulVecTo(out []float64, a *Dense, x []float64) error {
	if a.cols != len(x) || a.rows != len(out) {
		return ErrShape
	}
	for i := 0; i < a.rows; i++ {
		out[i] = Dot(a.Row(i), x)
	}
	return nil
}

// Dot returns the inner product of x and y, which must have equal length.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mat: Dot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	return math.Sqrt(Dot(x, x))
}

// AXPY computes y ← a·x + y in place.
func AXPY(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mat: AXPY length mismatch")
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// Scale multiplies every element of x by a in place.
func Scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Cholesky holds the lower-triangular Cholesky factor L of an SPD
// matrix A = L·Lᵀ, and exposes solves against it.
type Cholesky struct {
	n int
	l *Dense // lower triangular; upper part is zero
}

// NewCholesky factors the SPD matrix a. It returns ErrNotSPD when a
// pivot is non-positive (within a tiny tolerance scaled by the matrix).
func NewCholesky(a *Dense) (*Cholesky, error) {
	if a.rows != a.cols {
		return nil, ErrShape
	}
	c := &Cholesky{}
	if err := c.FactorInto(NewDense(a.rows, a.rows), a); err != nil {
		return nil, err
	}
	return c, nil
}

// GetCholesky is NewCholesky with the factor stored in a pooled matrix;
// Release (or the factor's own Release) returns the slab.
func GetCholesky(a *Dense) (*Cholesky, error) {
	if a.rows != a.cols {
		return nil, ErrShape
	}
	l := GetDense(a.rows, a.rows)
	c := &Cholesky{}
	if err := c.FactorInto(l, a); err != nil {
		l.Release()
		return nil, err
	}
	return c, nil
}

// FactorInto factors the SPD matrix a, storing L in the caller-provided
// n×n matrix l (cleared first, so reused scratch is fine) and pointing
// c at it. On error c is left unusable and l holds garbage.
//
// Column j needs s_i = a_ij − Σ_{k<j} L_ik·L_jk for every row i ≥ j,
// each summed in ascending k; then L_jj = √s_j and L_ij = s_i/L_jj.
// The rows are independent, so four of them share one pass over row j
// in lock step, the pivot row leading the first group. The last group
// of a column repeats row n−1 in its spare lanes, which recompute the
// same value; lane 0 is stored last, so a pivot repeated in a spare
// lane cannot overwrite L_jj.
func (c *Cholesky) FactorInto(l, a *Dense) error {
	if a.rows != a.cols {
		return ErrShape
	}
	n := a.rows
	if l.rows != n || l.cols != n {
		return ErrShape
	}
	clear(l.data)
	ld, ad := l.data, a.data
	for j := 0; j < n; j++ {
		lj := ld[j*n:][:j]
		var ljj float64
		for i := j; i < n; i += 4 {
			i1, i2, i3 := min(i+1, n-1), min(i+2, n-1), min(i+3, n-1)
			r0, r1 := ld[i*n:][:j], ld[i1*n:][:j]
			r2, r3 := ld[i2*n:][:j], ld[i3*n:][:j]
			s0, s1, s2, s3 := ad[i*n+j], ad[i1*n+j], ad[i2*n+j], ad[i3*n+j]
			for k, v := range lj {
				s0 -= r0[k] * v
				s1 -= r1[k] * v
				s2 -= r2[k] * v
				s3 -= r3[k] * v
			}
			if i == j {
				if s0 <= 0 || math.IsNaN(s0) {
					return ErrNotSPD
				}
				ljj = math.Sqrt(s0)
			}
			ld[i3*n+j], ld[i2*n+j], ld[i1*n+j] = s3/ljj, s2/ljj, s1/ljj
			if i == j {
				ld[i*n+j] = ljj
			} else {
				ld[i*n+j] = s0 / ljj
			}
		}
	}
	c.n = n
	c.l = l
	return nil
}

// Size returns the order of the factored matrix.
func (c *Cholesky) Size() int { return c.n }

// L returns the lower-triangular factor (a view, not a copy).
func (c *Cholesky) L() *Dense { return c.l }

// Release returns the factor's slab to the pool when it is pooled
// (GetCholesky); a no-op otherwise. Idempotent.
func (c *Cholesky) Release() {
	if c != nil {
		c.l.Release()
	}
}

// SolveVec solves A·x = b and returns x.
func (c *Cholesky) SolveVec(b []float64) ([]float64, error) {
	if len(b) != c.n {
		return nil, ErrShape
	}
	x := make([]float64, c.n)
	if err := c.SolveVecTo(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveVecTo solves A·x = b into caller storage x (length n). x may
// alias b — each b[i] is consumed before x[i] is written.
func (c *Cholesky) SolveVecTo(x, b []float64) error {
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
	// Back substitution: Lᵀ·x = y, down column i of L.
	n, ld := c.n, c.l.data
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= ld[k*n+i] * x[k]
		}
		x[i] = s / ld[i*n+i]
	}
	return nil
}

// Solve solves A·X = B for a matrix right-hand side.
func (c *Cholesky) Solve(b *Dense) (*Dense, error) {
	if b.rows != c.n {
		return nil, ErrShape
	}
	out := NewDense(b.rows, b.cols)
	col := make([]float64, c.n)
	for j := 0; j < b.cols; j++ {
		for i := 0; i < c.n; i++ {
			col[i] = b.At(i, j)
		}
		x, err := c.SolveVec(col)
		if err != nil {
			return nil, err
		}
		for i := 0; i < c.n; i++ {
			out.Set(i, j, x[i])
		}
	}
	return out, nil
}

// Inverse returns A⁻¹ computed from the factorization by inverting the
// triangular factor (A⁻¹ = L⁻ᵀ·L⁻¹). Exploiting triangularity costs
// ~n³/2 flops instead of the 2n³ of n full solves, and the result is
// symmetric by construction.
func (c *Cholesky) Inverse() (*Dense, error) {
	inv := NewDense(c.n, c.n)
	u := NewDense(c.n, c.n)
	if err := c.InverseTo(inv, u); err != nil {
		return nil, err
	}
	return inv, nil
}

// InverseTo computes A⁻¹ into inv using u as triangular scratch; both
// must be n×n and may be dirty (every entry consumed is written first).
// inv, u and the factor must all be distinct. On return u holds
// (L⁻¹)ᵀ by rows, as InverseFactorTo leaves it: InverseTo is exactly
// InverseFactorTo followed by InverseFromFactorTo.
func (c *Cholesky) InverseTo(inv, u *Dense) error {
	if err := c.InverseFactorTo(u); err != nil {
		return err
	}
	return InverseFromFactorTo(inv, u)
}

// InverseFactorTo writes U = (L⁻¹)ᵀ into the upper triangle of u, by
// rows: row j of U is column j of L⁻¹, so A⁻¹ = U·Uᵀ and every sum
// below and in InverseFromFactorTo is a dot product of contiguous row
// slices. Only the upper triangle is written, and only written entries
// are read back, so u may be dirty.
//
// Forward substitution runs down column j of L⁻¹:
// L⁻¹_ij = −(Σ_{j ≤ k < i} L_ik·L⁻¹_kj) / L_ii, summed in ascending k.
// An entry needs the entries above it in its own column only, so four
// columns j..j+3 run down the rows in lock step. Rows j+1..j+3 are the
// triangle where the later columns have not started; each of those six
// entries is its own sum. From row j+4 on, column j+c starts its sum
// at k = j+c: the three earlier columns add their short prefix below
// j+3 first, then all four share the loop from j+3 up.
func (c *Cholesky) InverseFactorTo(u *Dense) error {
	n := c.n
	if u.rows != n || u.cols != n {
		return ErrShape
	}
	ld, ud := c.l.data, u.data
	for j := 0; j < n; j += 4 {
		for q := j; q < min(j+4, n); q++ {
			lqq := ld[q*n+q]
			if lqq == 0 {
				return ErrNotSPD
			}
			ud[q*n+q] = 1 / lqq
		}
		for i := j + 1; i < min(j+4, n); i++ {
			lrow := ld[i*n:][:i]
			for q := j; q < i; q++ {
				uq := ud[q*n:][:i]
				var s float64
				for k := q; k < i; k++ {
					s += lrow[k] * uq[k]
				}
				ud[q*n+i] = -s / ld[i*n+i]
			}
		}
		for i := j + 4; i < n; i++ {
			lrow := ld[i*n:][:i]
			u0, u1 := ud[j*n:][:i], ud[(j+1)*n:][:i]
			u2, u3 := ud[(j+2)*n:][:i], ud[(j+3)*n:][:i]
			var s0, s1, s2, s3 float64
			s0 += lrow[j] * u0[j]
			s0 += lrow[j+1] * u0[j+1]
			s1 += lrow[j+1] * u1[j+1]
			s0 += lrow[j+2] * u0[j+2]
			s1 += lrow[j+2] * u1[j+2]
			s2 += lrow[j+2] * u2[j+2]
			for k := j + 3; k < i; k++ {
				v := lrow[k]
				s0 += v * u0[k]
				s1 += v * u1[k]
				s2 += v * u2[k]
				s3 += v * u3[k]
			}
			lii := ld[i*n+i]
			ud[j*n+i], ud[(j+1)*n+i] = -s0/lii, -s1/lii
			ud[(j+2)*n+i], ud[(j+3)*n+i] = -s2/lii, -s3/lii
		}
	}
	return nil
}

// InverseFromFactorTo fills inv = U·Uᵀ = A⁻¹ from the U that
// InverseFactorTo left in u: (A⁻¹)_ij = Σ_{m ≥ max(i,j)} U_im·U_jm,
// summed in ascending m. The diagonal is bit-identical to
// InverseDiagTo's.
//
// Every row i ≤ j sums over the same range m ≥ j, so four rows
// i..i+3 run against one row j in lock step. Where j < i+3 a lane whose
// row is past j repeats row j, recomputing the diagonal entry.
func InverseFromFactorTo(inv, u *Dense) error {
	n := u.rows
	if u.cols != n || inv.rows != n || inv.cols != n {
		return ErrShape
	}
	ud, id := u.data, inv.data
	for i := 0; i < n; i += 4 {
		for j := i; j < n; j++ {
			i1, i2, i3 := min(i+1, j), min(i+2, j), min(i+3, j)
			m := n - j
			uj := ud[j*n+j:][:m]
			u0, u1 := ud[i*n+j:][:m], ud[i1*n+j:][:m]
			u2, u3 := ud[i2*n+j:][:m], ud[i3*n+j:][:m]
			var s0, s1, s2, s3 float64
			for k, v := range uj {
				s0 += u0[k] * v
				s1 += u1[k] * v
				s2 += u2[k] * v
				s3 += u3[k] * v
			}
			id[i*n+j], id[j*n+i] = s0, s0
			id[i1*n+j], id[j*n+i1] = s1, s1
			id[i2*n+j], id[j*n+i2] = s2, s2
			id[i3*n+j], id[j*n+i3] = s3, s3
		}
	}
	return nil
}

// InverseDiagTo writes diag(A⁻¹) into d from the U that InverseFactorTo
// left in u — the O(n²) part of InverseFromFactorTo, for callers that
// need only the precisions.
func InverseDiagTo(d []float64, u *Dense) error {
	n := u.rows
	if u.cols != n || len(d) != n {
		return ErrShape
	}
	for i := range d {
		ui := u.Row(i)[i:]
		var s float64
		for _, v := range ui {
			s += v * v
		}
		d[i] = s
	}
	return nil
}

// LogDet returns log|A| = 2·Σ log L_ii.
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.n; i++ {
		s += math.Log(c.l.At(i, i))
	}
	return 2 * s
}

// AddDiagonal adds v to every diagonal element of the square matrix a in
// place. It is used to add jitter/noise terms to covariance matrices.
func AddDiagonal(a *Dense, v float64) error {
	if a.rows != a.cols {
		return ErrShape
	}
	for i := 0; i < a.rows; i++ {
		a.data[i*a.cols+i] += v
	}
	return nil
}

// SymmetrizeInPlace replaces a with (a + aᵀ)/2, cleaning up asymmetry
// introduced by floating-point accumulation.
func SymmetrizeInPlace(a *Dense) error {
	if a.rows != a.cols {
		return ErrShape
	}
	for i := 0; i < a.rows; i++ {
		for j := i + 1; j < a.cols; j++ {
			v := (a.At(i, j) + a.At(j, i)) / 2
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return nil
}

// MaxAbsDiff returns the largest absolute elementwise difference
// between a and b; useful in tests.
func MaxAbsDiff(a, b *Dense) (float64, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return 0, ErrShape
	}
	var m float64
	for i, v := range a.data {
		d := math.Abs(v - b.data[i])
		if d > m {
			m = d
		}
	}
	return m, nil
}
