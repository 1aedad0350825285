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

// CopyFrom copies src into m. The shapes must match.
func (m *Dense) CopyFrom(src *Dense) error {
	if m.rows != src.rows || m.cols != src.cols {
		return ErrShape
	}
	copy(m.data, src.data)
	return nil
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

// Mul returns a*b.
func Mul(a, b *Dense) (*Dense, error) {
	if a.cols != b.rows {
		return nil, ErrShape
	}
	out := NewDense(a.rows, b.cols)
	if err := MulTo(out, a, b); err != nil {
		return nil, err
	}
	return out, nil
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

// MulVec returns a·x as a new vector.
func MulVec(a *Dense, x []float64) ([]float64, error) {
	if a.cols != len(x) {
		return nil, ErrShape
	}
	out := make([]float64, a.rows)
	if err := MulVecTo(out, a, x); err != nil {
		return nil, err
	}
	return out, nil
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
func (c *Cholesky) FactorInto(l, a *Dense) error {
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
func (c *Cholesky) InverseFactorTo(u *Dense) error {
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

// InverseFromFactorTo fills inv = U·Uᵀ = A⁻¹ from the U that
// InverseFactorTo left in u: (A⁻¹)_ij = Σ_{m ≥ max(i,j)} U_im·U_jm,
// summed in ascending m. The diagonal is bit-identical to
// InverseDiagTo's.
func InverseFromFactorTo(inv, u *Dense) error {
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

// SolveSPDVec factors a and solves a·x = b in one call.
func SolveSPDVec(a *Dense, b []float64) ([]float64, error) {
	ch, err := NewCholesky(a)
	if err != nil {
		return nil, err
	}
	return ch.SolveVec(b)
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
