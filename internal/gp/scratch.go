package gp

import (
	"fmt"
	"math"

	"smiler/internal/mat"
	"smiler/internal/memsys"
)

// evalScratch bundles every transient one objective evaluation needs —
// covariance, Cholesky factor, (L⁻¹)ᵀ, precision matrix, C⁻¹·diag(c)
// and five n-vectors — backed by two memsys slabs acquired once per
// ascend() call and reused across all ~10–60 evaluations of that
// optimization. This is the single largest allocation win on the
// predict path: the CG line search used to heap-allocate ~10
// matrices/vectors per evaluation.
//
// An objective's value stage fills cov, lfac, u, alpha and (for LOO)
// kdiag for the Θ it evaluated; its gradient stage continues from
// exactly that state and writes the rest, so nothing is refactored.
// The rest — kinv, b, w, cdiag, v — never outlives one gradient call,
// so the two scratches of a pair share it.
//
// n is fixed for the lifetime of a scratch (a training set never
// changes size mid-optimization), so the Dense wrappers are built once.
type evalScratch struct {
	n       int
	matSlab []float64 // owned slabs; nil for the second of a pair
	vecSlab []float64

	cov  *mat.Dense // C = K + θ₂²I (+jitter), the factored covariance
	lfac *mat.Dense // Cholesky factor storage
	u    *mat.Dense // (L⁻¹)ᵀ by rows, upper triangle (mat.InverseFactorTo)
	kinv *mat.Dense // C⁻¹ (gradient stage)
	b    *mat.Dense // C⁻¹·diag(c) (LOO gradient stage)

	alpha []float64 // C⁻¹·y
	kdiag []float64 // diag C⁻¹ (LOO value stage)
	w     []float64 // α ⊘ diag C⁻¹
	cdiag []float64 // curvature weights
	v     []float64 // C⁻¹·w

	chol mat.Cholesky
	mats [5]mat.Dense // storage behind the matrix fields
}

// newEvalScratch returns one scratch: 5 n×n blocks and 5 n-vectors.
func newEvalScratch(n int) *evalScratch {
	ms, vs := memsys.GetFloats(5*n*n), memsys.GetFloats(5*n)
	s := &evalScratch{n: n, matSlab: ms, vecSlab: vs}
	s.carveValue(ms, vs)
	s.carveGrad(ms[3*n*n:], vs[2*n:])
	return s
}

// newEvalScratchPair returns two scratches with their own value-stage
// state and one shared set of gradient-stage buffers, on one pair of
// slabs owned by the first: 8 n×n blocks and 7 n-vectors.
func newEvalScratchPair(n int) (*evalScratch, *evalScratch) {
	ms, vs := memsys.GetFloats(8*n*n), memsys.GetFloats(7*n)
	pair := &[2]evalScratch{{n: n, matSlab: ms, vecSlab: vs}, {n: n}}
	a, b := &pair[0], &pair[1]
	a.carveValue(ms, vs)
	b.carveValue(ms[3*n*n:], vs[2*n:])
	a.carveGrad(ms[6*n*n:], vs[4*n:])
	b.kinv, b.b, b.w, b.cdiag, b.v = a.kinv, a.b, a.w, a.cdiag, a.v
	return a, b
}

// carveValue lays the value-stage state over the heads of ms (3 n×n
// blocks) and vs (2 n-vectors).
func (s *evalScratch) carveValue(ms, vs []float64) {
	n := s.n
	for i := 0; i < 3; i++ {
		s.mats[i].SetData(n, n, ms[i*n*n:(i+1)*n*n])
	}
	s.cov, s.lfac, s.u = &s.mats[0], &s.mats[1], &s.mats[2]
	s.alpha, s.kdiag = vs[0:n], vs[n:2*n]
}

// carveGrad lays the gradient-stage buffers over the heads of ms (2 n×n
// blocks) and vs (3 n-vectors).
func (s *evalScratch) carveGrad(ms, vs []float64) {
	n := s.n
	s.mats[3].SetData(n, n, ms[:n*n])
	s.mats[4].SetData(n, n, ms[n*n:2*n*n])
	s.kinv, s.b = &s.mats[3], &s.mats[4]
	s.w, s.cdiag, s.v = vs[0:n], vs[n:2*n], vs[2*n:3*n]
}

// release returns the slabs the scratch owns (none, for the second of a
// pair). The scratch must not be used afterwards.
func (s *evalScratch) release() {
	ms, vs := s.matSlab, s.vecSlab
	s.matSlab, s.vecSlab = nil, nil
	memsys.PutFloats(ms)
	memsys.PutFloats(vs)
}

// fit builds and factors the covariance into the scratch, walking the
// same jitter ladder as Model.factorize, and solves for α. It is the
// scratch-path twin of fitSet — same operations in the same order, so
// objective values are bit-identical to the model-allocating path.
func (s *evalScratch) fit(ts trainSet, hp Hyper) error {
	statFits.Add(1)
	var lastErr error
	for _, j := range jitters {
		covMatrixInto(s.cov, ts, hp, j)
		if err := s.chol.FactorInto(s.lfac, s.cov); err != nil {
			lastErr = err
			statJitterRetries.Add(1)
			continue
		}
		if err := s.chol.SolveVecTo(s.alpha, ts.y); err != nil {
			lastErr = err
			statJitterRetries.Add(1)
			continue
		}
		return nil
	}
	return fmt.Errorf("%w: %v", ErrSingular, lastErr)
}

// halfLog2Pi is the constant term ½·log 2π of every LOO summand,
// computed once instead of once per summand.
var halfLog2Pi = 0.5 * math.Log(2*math.Pi)

// looSum computes the LOO predictive log likelihood from the precision
// matrix diagonal (Eqn. 20) — shared by Model.LOO and the scratch-based
// optimizer so both paths are arithmetically identical.
func looSum(y, alpha, kdiag []float64) (float64, error) {
	var ll float64
	for i, kii := range kdiag {
		if kii <= 0 {
			return 0, fmt.Errorf("%w: nonpositive precision diagonal", ErrCondition)
		}
		sigma2 := 1 / kii
		mu := y[i] - alpha[i]/kii
		d := y[i] - mu
		ll += -0.5*math.Log(sigma2) - d*d/(2*sigma2) - halfLog2Pi
	}
	return ll, nil
}

// marginalSum computes log p(y|X,Θ) from α and the factor — shared by
// Model.MarginalLikelihood and the scratch-based optimizer.
func marginalSum(y, alpha []float64, chol *mat.Cholesky) float64 {
	return -0.5*mat.Dot(y, alpha) - 0.5*chol.LogDet() - 0.5*float64(len(y))*math.Log(2*math.Pi)
}
