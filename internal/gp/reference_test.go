package gp

import (
	"fmt"
	"math"

	"smiler/internal/mat"
)

// The optimizer as it stood before the objective was split into a value
// stage and a gradient stage: every evaluation computed the value and
// the full O(n³) gradient, and ascend discarded the gradient of every
// rejected line-search probe. The bodies below are kept verbatim on a
// scratch of their own (the old layout, with the stored product M) and
// with the unsplit inverse, so they share with production code only
// what the split did not touch: the Cholesky factorization and solve
// (held to their own parent kernels in internal/mat) and the
// log-hyperparameter clamp. The covariance comes from refCovMatrixInto
// below, the builder as it stood before the Gram base was read by rows
// and the exponentials ran four lanes wide. They are the oracle the
// split objectives are held to bit for bit.

type refScratch struct {
	cov, lfac, linv, kinv, b, mm *mat.Dense
	alpha, w, cdiag, v           []float64
	chol                         mat.Cholesky
}

func newRefScratch(n int) *refScratch {
	return &refScratch{
		cov: mat.NewDense(n, n), lfac: mat.NewDense(n, n), linv: mat.NewDense(n, n),
		kinv: mat.NewDense(n, n), b: mat.NewDense(n, n), mm: mat.NewDense(n, n),
		alpha: make([]float64, n), w: make([]float64, n),
		cdiag: make([]float64, n), v: make([]float64, n),
	}
}

// refR2 is the squared-distance callback of the parent's directSet:
// ‖x_i−x_j‖² recomputed on demand, never read from a Gram base.
func refR2(ts trainSet) func(i, j int) float64 {
	return func(i, j int) float64 { return sqDist(ts.x[i], ts.x[j]) }
}

// refCovR2 is the parent's Hyper.covR2.
func refCovR2(h Hyper, r2 float64) float64 {
	return h.Signal * h.Signal * math.Exp(-0.5*r2/(h.Length*h.Length))
}

// refCovMatrixInto is the parent's covMatrixR2Into: one math.Exp per
// entry of the upper triangle, through the distance callback.
func refCovMatrixInto(c *mat.Dense, n int, r2 func(i, j int) float64, hp Hyper, extraJitter float64) {
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := refCovR2(hp, r2(i, j))
			if i == j {
				v += hp.Noise*hp.Noise + extraJitter
			}
			c.Set(i, j, v)
			c.Set(j, i, v)
		}
	}
}

func (s *refScratch) fit(ts trainSet, hp Hyper) error {
	n := len(ts.y)
	var lastErr error
	for _, j := range jitters {
		refCovMatrixInto(s.cov, n, refR2(ts), hp, j)
		if err := s.chol.FactorInto(s.lfac, s.cov); err != nil {
			lastErr = err
			continue
		}
		if err := s.chol.SolveVecTo(s.alpha, ts.y); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return fmt.Errorf("%w: %v", ErrSingular, lastErr)
}

// refInverseTo is the unsplit mat.Cholesky.InverseTo: L⁻¹ by columns in
// the lower triangle of linv, then the full C⁻¹.
func refInverseTo(c *mat.Cholesky, inv, linv *mat.Dense) error {
	n := c.Size()
	l := c.L()
	for j := 0; j < n; j++ {
		ljj := l.At(j, j)
		if ljj == 0 {
			return mat.ErrNotSPD
		}
		linv.Set(j, j, 1/ljj)
		for i := j + 1; i < n; i++ {
			lrow := l.Row(i)
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

func refLooSum(y, alpha []float64, kinv *mat.Dense) (float64, error) {
	n := len(y)
	var ll float64
	for i := 0; i < n; i++ {
		kii := kinv.At(i, i)
		if kii <= 0 {
			return 0, fmt.Errorf("%w: nonpositive precision diagonal", ErrCondition)
		}
		sigma2 := 1 / kii
		mu := y[i] - alpha[i]/kii
		d := y[i] - mu
		ll += -0.5*math.Log(sigma2) - d*d/(2*sigma2) - 0.5*math.Log(2*math.Pi)
	}
	return ll, nil
}

func refLooValueGrad(ts trainSet, hp Hyper, s *refScratch) (float64, [3]float64, error) {
	var grad [3]float64
	if err := s.fit(ts, hp); err != nil {
		return 0, grad, err
	}
	if err := refInverseTo(&s.chol, s.kinv, s.linv); err != nil {
		return 0, grad, fmt.Errorf("%w: %v", ErrCondition, err)
	}
	kinv := s.kinv
	n := len(ts.y)
	alpha := s.alpha

	ll, err := refLooSum(ts.y, alpha, kinv)
	if err != nil {
		return 0, grad, err
	}

	w := s.w         // α ⊘ diag C⁻¹
	cdiag := s.cdiag // curvature weights c_i
	for i := 0; i < n; i++ {
		kii := kinv.At(i, i)
		if kii <= 0 {
			return 0, grad, fmt.Errorf("%w: nonpositive precision diagonal", ErrCondition)
		}
		w[i] = alpha[i] / kii
		cdiag[i] = 0.5 * (1 + alpha[i]*alpha[i]/kii) / kii
	}
	if err := mat.MulVecTo(s.v, kinv, w); err != nil { // C⁻¹ is symmetric
		return 0, grad, err
	}
	v := s.v
	// M = C⁻¹·diag(c)·C⁻¹ — the one shared O(n³) product.
	b := s.b
	for i := 0; i < n; i++ {
		brow := b.Row(i)
		krow := kinv.Row(i)
		for j := 0; j < n; j++ {
			brow[j] = krow[j] * cdiag[j]
		}
	}
	if err := mat.MulTo(s.mm, b, kinv); err != nil {
		return 0, grad, err
	}
	mm := s.mm

	sig2 := hp.Signal * hp.Signal
	len2 := hp.Length * hp.Length
	noise2 := hp.Noise * hp.Noise
	cov := s.cov
	r2 := refR2(ts)
	var gSig, gLen, gNoise float64
	for a := 0; a < n; a++ {
		covRow := cov.Row(a)
		mmRow := mm.Row(a)
		gaa := v[a]*alpha[a] - mmRow[a]
		gSig += gaa * 2 * sig2
		gNoise += gaa * 2 * noise2
		for bb := a + 1; bb < n; bb++ {
			g2 := v[a]*alpha[bb] - mmRow[bb] + v[bb]*alpha[a] - mm.At(bb, a)
			kse := covRow[bb]
			gSig += g2 * 2 * kse
			gLen += g2 * kse * r2(a, bb) / len2
		}
	}
	grad[0], grad[1], grad[2] = gSig, gLen, gNoise
	return ll, grad, nil
}

func refMlValueGrad(ts trainSet, hp Hyper, s *refScratch) (float64, [3]float64, error) {
	var grad [3]float64
	if err := s.fit(ts, hp); err != nil {
		return 0, grad, err
	}
	lz := marginalSum(ts.y, s.alpha, &s.chol)
	if err := refInverseTo(&s.chol, s.kinv, s.linv); err != nil {
		return 0, grad, fmt.Errorf("%w: %v", ErrCondition, err)
	}
	kinv := s.kinv
	n := len(ts.y)
	alpha := s.alpha

	sig2 := hp.Signal * hp.Signal
	len2 := hp.Length * hp.Length
	noise2 := hp.Noise * hp.Noise
	cov := s.cov
	r2 := refR2(ts)
	for i := 0; i < n; i++ {
		kinvRow := kinv.Row(i)
		covRow := cov.Row(i)
		wii := alpha[i]*alpha[i] - kinvRow[i]
		grad[0] += 0.5 * wii * (2 * sig2)   // diagonal K_SE = θ₀², r² = 0
		grad[2] += 0.5 * wii * (2 * noise2) // ∂C/∂log θ₂ lives on the diagonal
		for j := i + 1; j < n; j++ {
			w := 2 * (alpha[i]*alpha[j] - kinvRow[j]) // (i,j) and (j,i)
			kse := covRow[j]
			grad[0] += 0.5 * w * (2 * kse)
			grad[1] += 0.5 * w * (kse * r2(i, j) / len2)
		}
	}
	return lz, grad, nil
}

type refObjective func(ts trainSet, hp Hyper, s *refScratch) (float64, [3]float64, error)

func refAscend(ts trainSet, init Hyper, maxIter int, obj refObjective) (OptimizeResult, error) {
	scr := newRefScratch(len(ts.y))

	psi := toLog(init).clamp()
	res := OptimizeResult{Hyper: psi.hyper()}

	f, g, err := obj(ts, psi.hyper(), scr)
	res.Evals++
	if err != nil {
		return res, err
	}
	res.LOO = f

	dir := g
	prevG := g
	for iter := 0; iter < maxIter; iter++ {
		gnorm := math.Sqrt(g[0]*g[0] + g[1]*g[1] + g[2]*g[2])
		if gnorm < 1e-7 {
			break
		}
		slope := g[0]*dir[0] + g[1]*dir[1] + g[2]*dir[2]
		if slope <= 0 {
			dir = g
			slope = gnorm * gnorm
		}
		step := 0.5
		var (
			fNew  float64
			gNew  [3]float64
			psNew logHyper
			ok    bool
		)
		for tries := 0; tries < 14; tries++ {
			cand := logHyper{psi[0] + step*dir[0], psi[1] + step*dir[1], psi[2] + step*dir[2]}.clamp()
			fc, gc, err := obj(ts, cand.hyper(), scr)
			res.Evals++
			if err == nil && !math.IsNaN(fc) && fc >= f+1e-4*step*slope {
				fNew, gNew, psNew, ok = fc, gc, cand, true
				break
			}
			step *= 0.5
		}
		if !ok {
			break
		}
		var num, den float64
		for i := 0; i < 3; i++ {
			num += gNew[i] * (gNew[i] - prevG[i])
			den += prevG[i] * prevG[i]
		}
		beta := 0.0
		if den > 0 {
			beta = num / den
			if beta < 0 {
				beta = 0
			}
		}
		for i := 0; i < 3; i++ {
			dir[i] = gNew[i] + beta*dir[i]
		}
		psi, f, g, prevG = psNew, fNew, gNew, gNew
		res.Hyper = psi.hyper()
		res.LOO = f
	}
	return res, nil
}
