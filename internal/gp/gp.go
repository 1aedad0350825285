// Package gp implements Gaussian Process regression with the squared
// exponential covariance function the paper instantiates the semi-lazy
// predictor with (Eqn. 18):
//
//	c(x_a, x_b) = θ₀² · exp(−½‖x_a−x_b‖²/θ₁²) + δ_ab·θ₂²
//
// A Model conditions on the kNN training set (X_{k,d}, Y_h) and yields
// the closed-form posterior mean and variance (Eqns. 16–17). Hyper-
// parameters are chosen by maximizing the leave-one-out predictive log
// likelihood (Eqns. 19–20) computed from the partitioned inverse
// [Sundararajan & Keerthi 2001], with analytic gradients and a
// conjugate-gradient ascent (optimize.go). The semi-lazy setting keeps
// the training sets tiny (k ≤ 128), so all of this is exact — no
// low-rank approximation is required.
package gp

import (
	"errors"
	"fmt"
	"math"

	"smiler/internal/mat"
	"smiler/internal/memsys"
)

// Common errors.
var (
	ErrNoData    = errors.New("gp: empty training set")
	ErrDims      = errors.New("gp: inconsistent dimensions")
	ErrSingular  = errors.New("gp: covariance matrix not positive definite")
	ErrNegHyper  = errors.New("gp: hyperparameters must be positive")
	ErrDimInput  = errors.New("gp: test input dimension mismatch")
	ErrCondition = errors.New("gp: numerical failure")
)

// jitter ladder tried when the covariance Cholesky fails.
var jitters = []float64{0, 1e-10, 1e-8, 1e-6, 1e-4}

// Hyper holds the covariance hyperparameters Θ = {θ₀, θ₁, θ₂}:
// signal amplitude, characteristic length-scale and noise level.
type Hyper struct {
	Signal float64 // θ₀
	Length float64 // θ₁
	Noise  float64 // θ₂
}

// Validate checks positivity.
func (h Hyper) Validate() error {
	if h.Signal <= 0 || h.Length <= 0 || h.Noise <= 0 {
		return fmt.Errorf("%w: %+v", ErrNegHyper, h)
	}
	if math.IsNaN(h.Signal) || math.IsNaN(h.Length) || math.IsNaN(h.Noise) {
		return fmt.Errorf("%w: NaN in %+v", ErrNegHyper, h)
	}
	return nil
}

// sqDist returns ‖a−b‖².
func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Cov evaluates the SE covariance between two (distinct) inputs,
// without the noise term. The hyperparameters only rescale r² = ‖a−b‖²,
// which is what makes the per-column Gram-base sharing of Column exact:
// the same r² values serve every cell regardless of its Θ. covRow is
// the same expression over a row of precomputed r².
func (h Hyper) Cov(a, b []float64) float64 {
	return h.Signal * h.Signal * math.Exp(-0.5*sqDist(a, b)/(h.Length*h.Length))
}

// trainSet couples training pairs with their Gram base: the matrix of
// squared distances ‖x_i−x_j‖², computed once and read by rows. A
// Column's set shares the column's base and reads its leading block;
// directSet computes one for a single fit or optimization. Every fitting
// and optimization internal evaluates through it, so the direct and
// shared paths run the same code on bit-identical values.
type trainSet struct {
	x  [][]float64
	y  []float64
	sq *mat.Dense // Gram base, at least len(y)×len(y)
}

// r2Row returns ‖x_i−x_j‖² for j < len(ts.y): row i of the leading
// block of the Gram base.
func (ts trainSet) r2Row(i int) []float64 { return ts.sq.Row(i)[:len(ts.y)] }

// gramBase returns the pooled n×n matrix of ‖x_i−x_j‖², computed once
// per pair and mirrored. The diagonal stays zero.
func gramBase(x [][]float64) *mat.Dense {
	n := len(x)
	if n == 0 {
		return mat.NewDenseData(0, 0, nil)
	}
	sq := mat.GetDense(n, n) // zeroed on Get
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := sqDist(x[i], x[j])
			sq.Set(i, j, v)
			sq.Set(j, i, v)
		}
	}
	return sq
}

// directSet wraps raw training pairs with a Gram base of their own; the
// caller releases it (ts.sq.Release) when the fit or optimization is
// done.
func directSet(x [][]float64, y []float64) trainSet {
	return trainSet{x: x, y: y, sq: gramBase(x)}
}

// validateTraining checks the invariants Fit documents.
func validateTraining(x [][]float64, y []float64, hp Hyper) error {
	if len(x) == 0 || len(y) == 0 {
		return ErrNoData
	}
	if len(x) != len(y) {
		return fmt.Errorf("%w: %d inputs vs %d targets", ErrDims, len(x), len(y))
	}
	if err := hp.Validate(); err != nil {
		return err
	}
	dim := len(x[0])
	for i, xi := range x {
		if len(xi) != dim {
			return fmt.Errorf("%w: row %d has %d features, want %d", ErrDims, i, len(xi), dim)
		}
	}
	return nil
}

// Model is a GP regression model conditioned on a training set.
type Model struct {
	x     [][]float64
	y     []float64
	hyper Hyper
	dim   int

	chol   *mat.Cholesky
	alpha  []float64  // C⁻¹·y
	kinv   *mat.Dense // C⁻¹, materialized lazily for LOO
	cov    *mat.Dense // the factored C (kept for gradient reuse); may be nil
	jitter float64    // extra diagonal jitter baked into cov
}

// Fit conditions a GP with hyperparameters hp on the training pairs
// (x[i], y[i]). Rows of x must share one dimension. The slices are
// retained (not copied); callers must not mutate them afterwards.
func Fit(x [][]float64, y []float64, hp Hyper) (*Model, error) {
	if err := validateTraining(x, y, hp); err != nil {
		return nil, err
	}
	ts := directSet(x, y)
	defer ts.sq.Release()
	return fitSet(ts, hp)
}

// fitSet is the conditioning core behind Fit and Column.Fit; inputs are
// already validated.
func fitSet(ts trainSet, hp Hyper) (*Model, error) {
	statFits.Add(1)
	m := &Model{x: ts.x, y: ts.y, hyper: hp, dim: len(ts.x[0])}
	if err := m.factorize(ts); err != nil {
		return nil, err
	}
	return m, nil
}

// covMatrixInto fills the caller-provided n×n matrix c (n = len(ts.y))
// with C = K + θ₂²·I (+ extraJitter): each row of the upper triangle is
// one covRow call over the Gram base, mirrored below the diagonal.
// Every entry is written, so dirty reused scratch is fine.
func covMatrixInto(c *mat.Dense, ts trainSet, hp Hyper, extraJitter float64) {
	n := len(ts.y)
	sig2, len2 := hp.Signal*hp.Signal, hp.Length*hp.Length
	diag := hp.Noise*hp.Noise + extraJitter
	data := c.Data()
	for i := 0; i < n; i++ {
		row := data[i*n : (i+1)*n]
		covRow(row[i:], ts.r2Row(i)[i:], sig2, len2)
		row[i] += diag
		for j := i + 1; j < n; j++ {
			data[j*n+i] = row[j]
		}
	}
}

// factorize builds and factors the covariance, walking the jitter
// ladder if the matrix is numerically indefinite. The successful
// covariance is retained on the model so gradient evaluations can read
// K_SE entries back without re-exponentiating. All state is memsys-
// backed: Release returns it, and a model that is never released is
// ordinary garbage.
func (m *Model) factorize(ts trainSet) error {
	var lastErr error
	n := len(m.x)
	c := mat.GetDense(n, n)
	for _, j := range jitters {
		covMatrixInto(c, ts, m.hyper, j)
		ch, err := mat.GetCholesky(c)
		if err != nil {
			lastErr = err
			statJitterRetries.Add(1)
			continue
		}
		alpha := memsys.GetFloats(n)
		if err := ch.SolveVecTo(alpha, m.y); err != nil {
			memsys.PutFloats(alpha)
			ch.Release()
			lastErr = err
			statJitterRetries.Add(1)
			continue
		}
		m.chol = ch
		m.alpha = alpha
		m.kinv = nil
		m.cov = c
		m.jitter = j
		return nil
	}
	c.Release()
	return fmt.Errorf("%w: %v", ErrSingular, lastErr)
}

// Release returns the model's pooled covariance, factor, precision and
// α slabs to memsys. Idempotent, and safe to skip entirely — an
// unreleased model is collected by the GC like any other value. Callers
// must be completely done with the model.
func (m *Model) Release() {
	if m == nil {
		return
	}
	if m.alpha != nil {
		a := m.alpha
		m.alpha = nil
		memsys.PutFloats(a)
	}
	if m.chol != nil {
		m.chol.Release()
	}
	if m.cov != nil {
		m.cov.Release()
		m.cov = nil
	}
	if m.kinv != nil {
		m.kinv.Release()
		m.kinv = nil
	}
}

// Size returns the number of training points.
func (m *Model) Size() int { return len(m.y) }

// Hyper returns the model hyperparameters.
func (m *Model) Hyper() Hyper { return m.hyper }

// Predict returns the posterior mean and variance at test input x0
// (Eqns. 16–17): u₀ = c₀ᵀC⁻¹Y, σ₀² = c(x₀,x₀) − c₀ᵀC⁻¹c₀.
func (m *Model) Predict(x0 []float64) (mean, variance float64, err error) {
	return m.PredictBuf(x0, nil)
}

// PredictBuf is Predict with caller-provided scratch of length ≥ 2n
// (n = training-set size), removing the two per-call allocations on the
// hot path. nil or short scratch falls back to allocating. The result
// is bit-identical either way.
func (m *Model) PredictBuf(x0, scratch []float64) (mean, variance float64, err error) {
	if len(x0) != m.dim {
		return 0, 0, fmt.Errorf("%w: got %d, want %d", ErrDimInput, len(x0), m.dim)
	}
	n := len(m.x)
	if len(scratch) < 2*n {
		scratch = make([]float64, 2*n)
	}
	c0 := scratch[:n]
	v := scratch[n : 2*n]
	for i := 0; i < n; i++ {
		c0[i] = m.hyper.Cov(m.x[i], x0)
	}
	mean = mat.Dot(c0, m.alpha)
	if err := m.chol.SolveVecTo(v, c0); err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrCondition, err)
	}
	// Prior variance at x0 includes the noise term (we predict the
	// *observation*, as the paper's MNLPD evaluation requires).
	prior := m.hyper.Signal*m.hyper.Signal + m.hyper.Noise*m.hyper.Noise
	variance = prior - mat.Dot(c0, v)
	if variance < 1e-12 {
		variance = 1e-12 // guard against cancellation
	}
	return mean, variance, nil
}

// kinvMatrix materializes C⁻¹ (cached, pooled; Release returns it).
func (m *Model) kinvMatrix() (*mat.Dense, error) {
	if m.kinv != nil {
		return m.kinv, nil
	}
	n := m.chol.Size()
	inv := mat.GetDense(n, n)
	u := mat.GetDense(n, n)
	err := m.chol.InverseTo(inv, u)
	u.Release()
	if err != nil {
		inv.Release()
		return nil, fmt.Errorf("%w: %v", ErrCondition, err)
	}
	m.kinv = inv
	return inv, nil
}

// LOO returns the leave-one-out predictive log likelihood of the
// training set (Eqn. 20), computed in O(n³) once via the partitioned
// inverse: leaving point i out gives μ_i = y_i − α_i/[C⁻¹]_ii and
// σ²_i = 1/[C⁻¹]_ii [Sundararajan & Keerthi 2001].
func (m *Model) LOO() (float64, error) {
	kinv, err := m.kinvMatrix()
	if err != nil {
		return 0, err
	}
	kdiag := make([]float64, len(m.y))
	for i := range kdiag {
		kdiag[i] = kinv.At(i, i)
	}
	return looSum(m.y, m.alpha, kdiag)
}

// HeuristicHyper derives a data-driven starting point for optimization:
// signal = std(y), length = median pairwise input distance, noise =
// a tenth of the signal — the usual GP folklore initialization.
func HeuristicHyper(x [][]float64, y []float64) Hyper {
	st := stdev(y)
	if st <= 0 {
		st = 1
	}
	med := medianPairwiseDist(x)
	if med <= 0 {
		med = 1
	}
	return Hyper{Signal: st, Length: med, Noise: 0.1 * st}
}

func stdev(y []float64) float64 {
	if len(y) == 0 {
		return 0
	}
	var sum float64
	for _, v := range y {
		sum += v
	}
	mean := sum / float64(len(y))
	var ss float64
	for _, v := range y {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(y)))
}

func medianPairwiseDist(x [][]float64) float64 {
	n := len(x)
	if n < 2 {
		return 0
	}
	// Sample at most ~256 pairs; exactness is irrelevant for a seed.
	var ds []float64
	step := 1
	if n > 24 {
		step = n / 24
	}
	for i := 0; i < n; i += step {
		for j := i + step; j < n; j += step {
			ds = append(ds, math.Sqrt(sqDist(x[i], x[j])))
		}
	}
	if len(ds) == 0 {
		return 0
	}
	// Insertion-select the median (tiny slice).
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
	return ds[len(ds)/2]
}

// PosteriorSample draws one joint sample of the latent function at the
// test inputs x0s from the posterior, using the provided normal
// source (e.g. rand.NormFloat64). Sampling scenarios — rather than
// reporting only mean and variance — is how downstream planners
// consume correlated multi-point forecasts.
func (m *Model) PosteriorSample(x0s [][]float64, normal func() float64) ([]float64, error) {
	t := len(x0s)
	if t == 0 {
		return nil, ErrNoData
	}
	for i, x0 := range x0s {
		if len(x0) != m.dim {
			return nil, fmt.Errorf("%w: input %d has %d features, want %d", ErrDimInput, i, len(x0), m.dim)
		}
	}
	if normal == nil {
		return nil, errors.New("gp: nil normal source")
	}
	// Cross-covariances and posterior moments.
	n := len(m.x)
	ks := mat.NewDense(n, t) // K(X, X*)
	for i := 0; i < n; i++ {
		for j := 0; j < t; j++ {
			ks.Set(i, j, m.hyper.Cov(m.x[i], x0s[j]))
		}
	}
	mean := make([]float64, t)
	v, err := m.chol.Solve(ks) // C⁻¹·K(X,X*)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCondition, err)
	}
	for j := 0; j < t; j++ {
		var mu float64
		for i := 0; i < n; i++ {
			mu += ks.At(i, j) * m.alpha[i]
		}
		mean[j] = mu
	}
	// Posterior covariance Σ = K** − K*ᵀC⁻¹K* (+ jitter for sampling).
	cov := mat.NewDense(t, t)
	for a := 0; a < t; a++ {
		for b := a; b < t; b++ {
			kab := m.hyper.Cov(x0s[a], x0s[b])
			if a == b {
				kab += m.hyper.Noise * m.hyper.Noise
			}
			var red float64
			for i := 0; i < n; i++ {
				red += ks.At(i, a) * v.At(i, b)
			}
			val := kab - red
			cov.Set(a, b, val)
			cov.Set(b, a, val)
		}
	}
	if err := mat.AddDiagonal(cov, 1e-10); err != nil {
		return nil, err
	}
	ch, err := mat.NewCholesky(cov)
	if err != nil {
		return nil, fmt.Errorf("%w: posterior covariance not PD: %v", ErrCondition, err)
	}
	z := make([]float64, t)
	for i := range z {
		z[i] = normal()
	}
	out := make([]float64, t)
	l := ch.L()
	for i := 0; i < t; i++ {
		s := mean[i]
		for j := 0; j <= i; j++ {
			s += l.At(i, j) * z[j]
		}
		out[i] = s
	}
	return out, nil
}
