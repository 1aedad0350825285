package gp

import (
	"fmt"
)

// Marginal-likelihood training — the classical alternative to the LOO
// objective the paper adopts. [Sundararajan & Keerthi 2001], the
// paper's reference [64], compares exactly these two: LOO ("GPP") is
// more robust to model misspecification, ML is the textbook choice.
// Both are provided so the trade-off can be measured
// (BenchmarkAblationWarmStart exercises LOO; TestMLvsLOO compares the
// two objectives' fits).

// MarginalLikelihood returns the log marginal likelihood of the
// model's training data: log p(y|X,Θ) = −½yᵀC⁻¹y − ½log|C| − n/2·log2π.
func (m *Model) MarginalLikelihood() float64 {
	return marginalSum(m.y, m.alpha, m.chol)
}

// mlValue is the value stage of the marginal-likelihood objective: it
// needs only α and log|C|, both left by the fit.
func mlValue(ts trainSet, hp Hyper, s *evalScratch) (float64, error) {
	if err := s.fit(ts, hp); err != nil {
		return 0, err
	}
	return marginalSum(ts.y, s.alpha, &s.chol), nil
}

// mlGrad is the gradient stage, continuing from the factor mlValue left
// for the same hp: the gradient w.r.t. the log hyperparameters
// ∂logZ/∂ψ_j = ½·tr((ααᵀ − C⁻¹)·∂C/∂ψ_j)   [R&W 2006, Eqn. 5.9].
// K_SE entries are read back from the retained covariance (off-diagonal
// entries are exactly K_SE; on the diagonal K_SE = θ₀²) and squared
// distances from the Gram base, both by rows, so one O(n²) pass serves
// all three traces with no re-exponentiation.
func mlGrad(ts trainSet, hp Hyper, s *evalScratch) ([3]float64, error) {
	var grad [3]float64
	if err := s.chol.InverseTo(s.kinv, s.u); err != nil {
		return grad, fmt.Errorf("%w: %v", ErrCondition, err)
	}
	kinv := s.kinv
	n := len(ts.y)
	alpha := s.alpha

	sig2 := hp.Signal * hp.Signal
	len2 := hp.Length * hp.Length
	noise2 := hp.Noise * hp.Noise
	cov := s.cov
	for i := 0; i < n; i++ {
		kinvRow := kinv.Row(i)
		crow := cov.Row(i)
		r2row := ts.r2Row(i)
		wii := alpha[i]*alpha[i] - kinvRow[i]
		grad[0] += 0.5 * wii * (2 * sig2)   // diagonal K_SE = θ₀², r² = 0
		grad[2] += 0.5 * wii * (2 * noise2) // ∂C/∂log θ₂ lives on the diagonal
		for j := i + 1; j < n; j++ {
			w := 2 * (alpha[i]*alpha[j] - kinvRow[j]) // (i,j) and (j,i)
			kse := crow[j]
			grad[0] += 0.5 * w * (2 * kse)
			grad[1] += 0.5 * w * (kse * r2row[j] / len2)
		}
	}
	return grad, nil
}

// OptimizeML maximizes the log marginal likelihood with the same
// Polak–Ribière conjugate-gradient scheme Optimize uses for the LOO
// objective. The result's LOO field holds the final log marginal
// likelihood value.
func OptimizeML(x [][]float64, y []float64, init Hyper, maxIter int) (OptimizeResult, error) {
	if err := init.Validate(); err != nil {
		return OptimizeResult{}, err
	}
	if maxIter < 0 {
		return OptimizeResult{}, fmt.Errorf("gp: negative maxIter %d", maxIter)
	}
	ts := directSet(x, y)
	defer ts.sq.Release()
	return ascend(ts, init, maxIter, mlObjective)
}
