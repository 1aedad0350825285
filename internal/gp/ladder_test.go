package gp

import (
	"math"
	"math/rand"
	"testing"
)

// probedTrajectory replays refAscend's full-ladder trajectory while
// probing every rung of every line search, not only the rungs down to
// the first that passes. Probes run obj's value stage, which the tests
// above hold bit-equal to ref; the accepted step's value and gradient
// come from ref. states[i] is refAscend's result at maxIter i
// (states[0] the starting point, Evals counted as refAscend counts
// them); monotone[i] reports whether Armijo acceptance was monotone
// along the ladder in every line search up to i: once a rung passes,
// every smaller step passes too. Only where it is not can a line search
// that starts mid-ladder pick a different step.
func probedTrajectory(ts trainSet, init Hyper, maxIter int, obj objective, ref refObjective) (states []OptimizeResult, monotone []bool) {
	scr, rs := newEvalScratch(len(ts.y)), newRefScratch(len(ts.y))
	defer scr.release()
	psi := toLog(init).clamp()
	f, g, err := ref(ts, psi.hyper(), rs)
	if err != nil {
		return nil, nil
	}
	states = []OptimizeResult{{Hyper: psi.hyper(), LOO: f, Evals: 1}}
	monotone = []bool{true}
	dir, prevG := g, g
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
		first, mono := -1, monotone[len(monotone)-1]
		var psNew logHyper
		for r := 0; r < ladderRungs; r++ {
			step := math.Ldexp(0.5, -r)
			cand := logHyper{psi[0] + step*dir[0], psi[1] + step*dir[1], psi[2] + step*dir[2]}.clamp()
			fc, err := obj.value(ts, cand.hyper(), scr)
			pass := err == nil && !math.IsNaN(fc) && fc >= f+1e-4*step*slope
			switch {
			case pass && first < 0:
				first, psNew = r, cand
			case !pass && first >= 0:
				mono = false
			}
		}
		prev := states[len(states)-1]
		if first < 0 { // refAscend probes every rung, then stops
			prev.Evals += ladderRungs
			states = append(states, prev)
			monotone = append(monotone, mono)
			break
		}
		fNew, gNew, err := ref(ts, psNew.hyper(), rs)
		if err != nil {
			panic(err) // the value stage passed at this Θ
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
		states = append(states, OptimizeResult{Hyper: psi.hyper(), LOO: f, Evals: prev.Evals + first + 1})
		monotone = append(monotone, mono)
	}
	return states, monotone
}

// TestLadderResumeMatchesFullLadder holds the resumed line search to the
// full ladder it replaced, on 504 seeded columns (k ∈ {8, 16, 32},
// d ∈ {16, 32, 64}, heuristic and perturbed warm starts), both
// objectives, 5 and 20 iterations. An optimization may end anywhere but
// bit-equal to refAscend only if some line search on the full-ladder
// trajectory met non-monotone Armijo acceptance.
func TestLadderResumeMatchesFullLadder(t *testing.T) {
	const columns = 504
	var runs, equal, nonMonotone, evals, refEvals int
	for i := 0; i < columns; i++ {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		k := []int{8, 16, 32}[i%3]
		d := []int{16, 32, 64}[i/3%3]
		x, y := makeData(rng, k, d, 0.1)
		col, err := NewColumn(x[0], x, y)
		if err != nil {
			t.Fatal(err)
		}
		init := HeuristicHyper(x, y)
		if i/9%2 == 1 { // a warm start carried over from another cell
			init = Hyper{
				Signal: init.Signal * math.Exp(0.5*rng.NormFloat64()),
				Length: init.Length * math.Exp(0.5*rng.NormFloat64()),
				Noise:  init.Noise * math.Exp(0.5*rng.NormFloat64()),
			}
		}
		ts := col.set(k)
		for _, c := range objectiveCases {
			states, monotone := probedTrajectory(ts, init, 20, c.obj, c.ref)
			if len(states) == 0 {
				t.Fatalf("column %d %s: reference failed at the starting point", i, c.name)
			}
			last := len(states) - 1
			full, err := refAscend(ts, init, 20, c.ref)
			if err != nil || !sameOptimum(full, states[last]) || full.Evals != states[last].Evals {
				t.Fatalf("column %d %s: probed replay %+v, refAscend %+v (%v)", i, c.name, states[last], full, err)
			}
			for _, iters := range []int{5, 20} {
				want, mono := states[min(iters, last)], monotone[min(iters, last)]
				got, err := ascend(ts, init, iters, c.obj)
				if err != nil {
					t.Fatalf("column %d %s iters=%d: %v", i, c.name, iters, err)
				}
				runs++
				evals += got.Evals
				refEvals += want.Evals
				if !mono {
					nonMonotone++
				}
				if sameOptimum(got, want) {
					equal++
					continue
				}
				if mono {
					t.Fatalf("column %d (k=%d d=%d) %s iters=%d: resumed %+v, full ladder %+v, yet acceptance was monotone on every line search",
						i, k, d, c.name, iters, got, want)
				}
			}
		}
		col.Release()
	}
	t.Logf("%d optimizations: %d (%.1f%%) bit-equal to the full ladder; %d (%.1f%%) met non-monotone acceptance; evaluations %d resumed vs %d full ladder (%.1f%% fewer)",
		runs, equal, 100*float64(equal)/float64(runs), nonMonotone, 100*float64(nonMonotone)/float64(runs),
		evals, refEvals, 100*(1-float64(evals)/float64(refEvals)))
	if evals >= refEvals {
		t.Fatalf("resumed line search spent %d evaluations, full ladder %d", evals, refEvals)
	}
}
