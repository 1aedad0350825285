package gp

import (
	"fmt"
	"math"

	"smiler/internal/mat"
)

// Optimization works on ψ = log Θ so positivity is automatic; ψ is
// clamped to keep the covariance numerically sane for z-normalized
// data.
const (
	logLo = -9.2 // θ ≥ ~1e-4
	logHi = 6.9  // θ ≤ ~1e3
)

// OptimizeResult reports the outcome of hyperparameter optimization.
type OptimizeResult struct {
	Hyper Hyper   // optimized hyperparameters
	LOO   float64 // leave-one-out log likelihood at Hyper
	// Evals counts objective values computed (one Fit each): the
	// starting point plus every line-search probe.
	Evals int
	// Gradients counts the gradients computed on top of those values:
	// the starting point's and each accepted probe's. Every other probe
	// needs only its value.
	Gradients int
}

type logHyper [3]float64 // log θ₀, log θ₁, log θ₂

func toLog(h Hyper) logHyper {
	return logHyper{math.Log(h.Signal), math.Log(h.Length), math.Log(h.Noise)}
}

func (p logHyper) hyper() Hyper {
	return Hyper{Signal: math.Exp(p[0]), Length: math.Exp(p[1]), Noise: math.Exp(p[2])}
}

func (p logHyper) clamp() logHyper {
	for i := range p {
		if p[i] < logLo {
			p[i] = logLo
		}
		if p[i] > logHi {
			p[i] = logHi
		}
	}
	return p
}

// looValue is the value stage of the LOO objective (Eqn. 20): the fit,
// (L⁻¹)ᵀ and diag C⁻¹ — about a third of a full evaluation, and all an
// Armijo probe reads. It leaves s describing hp for looGrad.
func looValue(ts trainSet, hp Hyper, s *evalScratch) (float64, error) {
	if err := s.fit(ts, hp); err != nil {
		return 0, err
	}
	if err := s.chol.InverseFactorTo(s.u); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrCondition, err)
	}
	if err := mat.InverseDiagTo(s.kdiag, s.u); err != nil {
		return 0, err
	}
	return looSum(ts.y, s.alpha, s.kdiag)
}

// looGrad is the gradient stage of the LOO objective: the gradient with
// respect to the log hyperparameters [Rasmussen & Williams 2006,
// Eqn. 5.13], continuing from the scratch looValue left for the same
// hp. The naive form needs one O(n³) product C⁻¹·∂C/∂ψ_j per
// hyperparameter; both terms of the gradient are linear in ∂C, so with
//
//	v = C⁻¹·(α ⊘ diag C⁻¹),  c_i = ½(1+α_i²/[C⁻¹]_ii)/[C⁻¹]_ii,
//	G = v·αᵀ − M,  M = C⁻¹·diag(c)·C⁻¹,
//
// every gradient collapses to ∂ll/∂ψ_j = Σ_ab G_ab·(∂C/∂ψ_j)_ab — a
// single shared O(n³) product plus one O(n²) trace per hyperparameter,
// with K_SE entries read back from the retained covariance instead of
// re-exponentiating. The trace reads M only as M_ab + M_ba, so M is
// never stored: each pair's two entries are summed (mmQuad) right
// before the trace consumes them.
func looGrad(ts trainSet, hp Hyper, s *evalScratch) ([3]float64, error) {
	var grad [3]float64
	if err := mat.InverseFromFactorTo(s.kinv, s.u); err != nil {
		return grad, err
	}
	kinv, b := s.kinv, s.b
	n := len(ts.y)
	alpha := s.alpha

	w := s.w         // α ⊘ diag C⁻¹
	cdiag := s.cdiag // curvature weights c_i
	// Every kii is positive: looSum checked it in the value stage.
	for i, kii := range s.kdiag {
		w[i] = alpha[i] / kii
		cdiag[i] = 0.5 * (1 + alpha[i]*alpha[i]/kii) / kii
	}
	if err := mat.MulVecTo(s.v, kinv, w); err != nil { // C⁻¹ is symmetric
		return grad, err
	}
	v := s.v
	for i := 0; i < n; i++ {
		brow := b.Row(i)
		for j, kij := range kinv.Row(i) {
			brow[j] = kij * cdiag[j]
		}
	}

	// One pass over the upper triangle accumulates all three traces.
	// ∂C/∂log θ₀ = 2·K_SE, ∂C/∂log θ₁ = K_SE ∘ (r²/θ₁²) (zero on the
	// diagonal), ∂C/∂log θ₂ = 2θ₂²·I. Off-diagonal covariance entries
	// are exactly K_SE; on the diagonal K_SE = θ₀².
	sig2 := hp.Signal * hp.Signal
	len2 := hp.Length * hp.Length
	noise2 := hp.Noise * hp.Noise
	var gSig, gLen, gNoise float64
	var cova, r2a []float64 // row a of the covariance and of the Gram base
	pair := func(a, c int, mac, mca float64) {
		g2 := v[a]*alpha[c] - mac + v[c]*alpha[a] - mca
		kse := cova[c]
		gSig += g2 * 2 * kse
		gLen += g2 * kse * r2a[c] / len2
	}
	for a := 0; a < n; a++ {
		ka, ba := kinv.Row(a), b.Row(a)
		cova, r2a = s.cov.Row(a), ts.r2Row(a)
		gaa := v[a]*alpha[a] - mat.Dot(ba, ka) // M_aa
		gSig += gaa * 2 * sig2
		gNoise += gaa * 2 * noise2
		c := a + 1
		for ; c+4 <= n; c += 4 {
			m, mt := mmQuad(ka, ba, kinv, b, c)
			for j := 0; j < 4; j++ {
				pair(a, c+j, m[j], mt[j])
			}
		}
		for ; c < n; c++ {
			pair(a, c, mat.Dot(ba, kinv.Row(c)), mat.Dot(b.Row(c), ka))
		}
	}
	grad[0], grad[1], grad[2] = gSig, gLen, gNoise
	return grad, nil
}

// mmQuad returns M_{a,c+j} and M_{c+j,a} for j < 4, where ka and ba are
// row a of C⁻¹ and of B = C⁻¹·diag(c), so M = B·C⁻¹. C⁻¹ is exactly
// symmetric, so M_{a,c} = Σ_k B_ak·C⁻¹_ck and M_{c,a} = Σ_k B_ck·C⁻¹_ak:
// both are dot products of contiguous rows, each summed in ascending k
// with the same operands as a row-times-matrix product, so the bits
// match a stored M. (mat.MulTo skips zero multiplicands; that only ever
// skips adding a signed zero, which cannot change a sum that starts at
// +0.) Four pairs at a time read row a once for eight sums.
func mmQuad(ka, ba []float64, kinv, b *mat.Dense, c int) (m, mt [4]float64) {
	n := len(ka)
	ba = ba[:n]
	k0, k1, k2, k3 := kinv.Row(c)[:n], kinv.Row(c + 1)[:n], kinv.Row(c + 2)[:n], kinv.Row(c + 3)[:n]
	b0, b1, b2, b3 := b.Row(c)[:n], b.Row(c + 1)[:n], b.Row(c + 2)[:n], b.Row(c + 3)[:n]
	var m0, m1, m2, m3, t0, t1, t2, t3 float64
	for k, x := range ka {
		y := ba[k]
		m0 += y * k0[k]
		m1 += y * k1[k]
		m2 += y * k2[k]
		m3 += y * k3[k]
		t0 += b0[k] * x
		t1 += b1[k] * x
		t2 += b2[k] * x
		t3 += b3[k] * x
	}
	return [4]float64{m0, m1, m2, m3}, [4]float64{t0, t1, t2, t3}
}

// objective is a maximization target over log hyperparameters, in two
// stages. value computes the objective at hp into the scratch; grad
// computes its gradient, continuing from the scratch the immediately
// preceding successful value call left for the same hp. The scratch is
// owned by the surrounding ascend() and reused across evaluations.
type objective struct {
	value func(ts trainSet, hp Hyper, s *evalScratch) (float64, error)
	grad  func(ts trainSet, hp Hyper, s *evalScratch) ([3]float64, error)
}

var (
	looObjective = objective{looValue, looGrad}
	mlObjective  = objective{mlValue, mlGrad}
)

// Optimize maximizes the LOO log likelihood starting from init, using
// Polak–Ribière conjugate gradients with an Armijo backtracking line
// search, for at most maxIter iterations. A failed covariance
// factorization during the search is treated as −∞ (the step is
// rejected). This is the "online training" of Section 5.2.2: with the
// tiny semi-lazy training sets each evaluation is O(k³) with k ≤ 128.
func Optimize(x [][]float64, y []float64, init Hyper, maxIter int) (OptimizeResult, error) {
	if err := init.Validate(); err != nil {
		return OptimizeResult{}, err
	}
	if maxIter < 0 {
		return OptimizeResult{}, fmt.Errorf("gp: negative maxIter %d", maxIter)
	}
	ts := directSet(x, y)
	defer ts.sq.Release()
	return ascend(ts, init, maxIter, looObjective)
}

// ladderRungs is the length of the Armijo step ladder: rung r probes
// the step 0.5·2⁻ʳ.
const ladderRungs = 14

// ascend is the shared CG maximizer behind Optimize, OptimizeML and
// their Column variants. Each line search walks the step ladder
// 0.5·2⁻ʳ, r < ladderRungs, and accepts the largest step that passes
// the Armijo test — but it starts at the rung the previous iteration
// accepted instead of at 0.5: if that rung passes, it probes one rung
// higher and keeps walking up while probes pass; if it fails, it walks
// down. Wherever Armijo acceptance is monotone along the ladder (every
// step below the largest passing one passes too) this picks exactly the
// step a walk down from 0.5 would, with fewer probes.
//
// A probe runs only the objective's value stage; the gradient stage runs
// for the starting point and for the accepted probe, continuing from its
// scratch. A walk up ends on a failed probe evaluated after the one it
// accepts, so ascend holds two evalScratch buffers and swaps them after
// every passing probe: the accepted probe's state is always in spare.
// The pair is acquired once for the whole optimization and released on
// return — the deterministic join point for every buffer the line
// search touches.
func ascend(ts trainSet, init Hyper, maxIter int, obj objective) (res OptimizeResult, err error) {
	scr, spare := newEvalScratchPair(len(ts.y))
	defer scr.release()
	defer spare.release()
	defer func() {
		statOptimizeEvals.Add(uint64(res.Evals))
		statOptimizeGradients.Add(uint64(res.Gradients))
	}()

	psi := toLog(init).clamp()
	res.Hyper = psi.hyper()

	f, err := obj.value(ts, psi.hyper(), scr)
	res.Evals++
	if err != nil {
		return res, err
	}
	g, err := obj.grad(ts, psi.hyper(), scr)
	res.Gradients++
	if err != nil {
		return res, err
	}
	res.LOO = f

	dir := g
	prevG := g
	rung := 0 // where the next line search starts
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
		var (
			fNew  float64
			gNew  [3]float64
			psNew logHyper
			ok    bool
		)
		up, acc := true, -1 // walking up; the rung whose state is in spare
		for r := rung; r >= 0 && r < ladderRungs; {
			step := math.Ldexp(0.5, -r)
			cand := logHyper{psi[0] + step*dir[0], psi[1] + step*dir[1], psi[2] + step*dir[2]}.clamp()
			fc, err := obj.value(ts, cand.hyper(), scr)
			res.Evals++
			pass := err == nil && !math.IsNaN(fc) && fc >= f+1e-4*step*slope
			if pass {
				scr, spare = spare, scr
				acc, fNew, psNew = r, fc, cand
				if up && r > 0 {
					r--
					continue
				}
			} else if acc < 0 {
				up = false
				r++
				continue
			}
			gc, err := obj.grad(ts, psNew.hyper(), spare)
			res.Gradients++
			if err == nil {
				gNew, ok = gc, true
				break
			}
			// No gradient at the accepted step: walk down from below it.
			up, r, acc = false, acc+1, -1
		}
		if !ok {
			break
		}
		rung = acc
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
