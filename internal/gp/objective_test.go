package gp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// valueGrad runs both stages of obj at hp, the way ascend does at its
// starting point.
func valueGrad(obj objective, ts trainSet, hp Hyper, s *evalScratch) (float64, [3]float64, error) {
	f, err := obj.value(ts, hp, s)
	if err != nil {
		return 0, [3]float64{}, err
	}
	g, err := obj.grad(ts, hp, s)
	return f, g, err
}

// objectiveCases pairs each split objective with its unsplit reference
// (reference_test.go) and its Column entry point.
var objectiveCases = []struct {
	name string
	obj  objective
	ref  refObjective
	opt  func(c *Column, k int, init Hyper, maxIter int) (OptimizeResult, error)
}{
	{"loo", looObjective, refLooValueGrad, (*Column).Optimize},
	{"ml", mlObjective, refMlValueGrad, (*Column).OptimizeML},
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameOptimum reports whether two optimizations ended at the same
// Hyper and objective value, bit for bit.
func sameOptimum(a, b OptimizeResult) bool {
	return sameBits(a.Hyper.Signal, b.Hyper.Signal) && sameBits(a.Hyper.Length, b.Hyper.Length) &&
		sameBits(a.Hyper.Noise, b.Hyper.Noise) && sameBits(a.LOO, b.LOO)
}

// checkAgainstReference evaluates both stages at every hp on one dirty
// scratch, then runs the whole optimizer from init. Value, gradient,
// error and the optimizer's Hyper and LOO must match the unsplit
// full-ladder reference bit for bit. It returns the evaluations both
// optimizers spent: the resumed line search can spend more than the
// full ladder on one optimization (a step that grows by several rungs
// at once is reached by walking up), so callers compare the totals.
func checkAgainstReference(t *testing.T, label string, col *Column, k int, init Hyper, hps []Hyper) (evals, refEvals int) {
	t.Helper()
	ts := col.set(k)
	for _, c := range objectiveCases {
		scr := newEvalScratch(k)
		ref := newRefScratch(k)
		for _, hp := range hps {
			wf, wg, werr := c.ref(ts, hp, ref)
			gf, gg, gerr := valueGrad(c.obj, ts, hp, scr)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s %s hp=%+v: err %v, reference %v", label, c.name, hp, gerr, werr)
			}
			if werr != nil {
				continue
			}
			if !sameBits(gf, wf) || !sameBits(gg[0], wg[0]) || !sameBits(gg[1], wg[1]) || !sameBits(gg[2], wg[2]) {
				t.Fatalf("%s %s hp=%+v: value/grad %v %v, reference %v %v", label, c.name, hp, gf, gg, wf, wg)
			}
		}
		scr.release()
		for _, iters := range []int{5, 20} {
			want, werr := refAscend(ts, init, iters, c.ref)
			got, gerr := c.opt(col, k, init, iters)
			if (werr == nil) != (gerr == nil) || !sameOptimum(got, want) {
				t.Fatalf("%s %s iters=%d: %+v (%v), reference %+v (%v)", label, c.name, iters, got, gerr, want, werr)
			}
			evals += got.Evals
			refEvals += want.Evals
			if got.Gradients < 1 || got.Gradients > got.Evals {
				t.Fatalf("%s %s iters=%d: %d gradients for %d evals", label, c.name, iters, got.Gradients, got.Evals)
			}
		}
	}
	return evals, refEvals
}

// checkFewerEvals requires the resumed line search to spend no more
// evaluations in total than the full ladder.
func checkFewerEvals(t *testing.T, evals, refEvals int) {
	t.Helper()
	if evals > refEvals {
		t.Fatalf("resumed line search spent %d evaluations, full ladder %d", evals, refEvals)
	}
	t.Logf("evaluations: %d resumed, %d full ladder", evals, refEvals)
}

// TestSplitObjectivesMatchReferenceBitwise holds the value/gradient
// split to the unsplit objectives on seeded random columns at the
// serving shapes.
func TestSplitObjectivesMatchReferenceBitwise(t *testing.T) {
	seed := int64(0)
	var evals, refEvals int
	for _, k := range []int{8, 16, 32} {
		for _, d := range []int{32, 64, 96} {
			seed++
			rng := rand.New(rand.NewSource(seed))
			x, y := makeData(rng, k, d, 0.1)
			col, err := NewColumn(x[0], x, y)
			if err != nil {
				t.Fatal(err)
			}
			init := HeuristicHyper(x, y)
			hps := []Hyper{init}
			for i := 0; i < 4; i++ {
				hps = append(hps, Hyper{
					Signal: init.Signal * math.Exp(rng.NormFloat64()),
					Length: init.Length * math.Exp(rng.NormFloat64()),
					Noise:  init.Noise * math.Exp(rng.NormFloat64()),
				})
			}
			e, re := checkAgainstReference(t, fmt.Sprintf("k=%d d=%d", k, d), col, k, init, hps)
			evals, refEvals = evals+e, refEvals+re
			col.Release()
		}
	}
	checkFewerEvals(t, evals, refEvals)
}

// TestSplitObjectivesMatchReferenceOnJitterLadder repeats the check on
// duplicated and near-duplicated inputs (the overlapping-segment case)
// at signal-to-noise ratios where the factorization fails at zero
// jitter and walks up the ladder. The optimizer's clamp keeps it off
// the ladder on this data, so the ladder is reached through the
// stage-level evaluations.
func TestSplitObjectivesMatchReferenceOnJitterLadder(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const k = 32
	x := make([][]float64, k)
	y := make([]float64, k)
	for i := range x {
		if i%4 == 3 {
			x[i] = x[i-1] // exact duplicate
		} else {
			x[i] = []float64{1e-2 * rng.NormFloat64(), 1e-2 * rng.NormFloat64(), 1e-2 * rng.NormFloat64()}
		}
		y[i] = rng.NormFloat64()
	}
	col, err := NewColumn(x[0], x, y)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Release()
	init := Hyper{Signal: 1e3, Length: 1, Noise: 1e-4}
	before := SnapshotStats().JitterRetries
	evals, refEvals := checkAgainstReference(t, "duplicates", col, k, init, []Hyper{
		{Signal: 1e4, Length: 1, Noise: 1e-6},
		{Signal: 3e3, Length: 0.5, Noise: 1e-6},
		{Signal: 1e6, Length: 1, Noise: 1e-6}, // every rung fails
		init,
	})
	if SnapshotStats().JitterRetries == before {
		t.Fatal("fixture never walked the jitter ladder")
	}
	checkFewerEvals(t, evals, refEvals)
}

// TestOptimizeTrajectoriesPinned pins one LOO and one ML trajectory's
// bits, taken from the unsplit optimizer. A change that moves them must
// re-pin them here, in its own diff, and say why. The evaluation counts
// were re-pinned when the line search began resuming at the last
// accepted rung (LOO 32 → 20, ML 30 → 21); the bits did not move.
func TestOptimizeTrajectoriesPinned(t *testing.T) {
	x, y := makeData(rand.New(rand.NewSource(27)), 32, 3, 0.1)
	col, err := NewColumn(x[0], x, y)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Release()
	init := HeuristicHyper(x, y)
	type pin struct {
		signal, length, noise, value uint64
		evals                        int
	}
	for _, c := range []struct {
		name string
		opt  func(c *Column, k int, init Hyper, maxIter int) (OptimizeResult, error)
		want pin
	}{
		{"loo", (*Column).Optimize, pin{0x4005a20b5fb2813a, 0x4007ad1b2db6be66, 0x3fb7d8dc900e60ec, 0x40191b33a175cff6, 20}},
		{"ml", (*Column).OptimizeML, pin{0x3ff4ba228e37976c, 0x400096fa2e4ee859, 0x3fbafe575ee1f1c4, 0xc024960212ff8724, 21}},
	} {
		res, err := c.opt(col, 32, init, 5)
		if err != nil {
			t.Fatal(err)
		}
		got := pin{math.Float64bits(res.Hyper.Signal), math.Float64bits(res.Hyper.Length),
			math.Float64bits(res.Hyper.Noise), math.Float64bits(res.LOO), res.Evals}
		if got != c.want {
			t.Fatalf("%s: trajectory moved: got %#x (%+v), pinned %#x", c.name, got, res, c.want)
		}
	}
}

// TestOptimizeCountsGradients checks the counter contract: one gradient
// for the starting point and one per accepted step, every other
// evaluation a rejected probe, and both counters advanced by exactly
// the result's counts.
func TestOptimizeCountsGradients(t *testing.T) {
	x, y := makeData(rand.New(rand.NewSource(12)), 24, 4, 0.1)
	before := SnapshotStats()
	res, err := Optimize(x, y, Hyper{Signal: 0.3, Length: 3, Noise: 0.5}, 8)
	if err != nil {
		t.Fatal(err)
	}
	after := SnapshotStats()
	if res.Gradients < 2 || res.Gradients >= res.Evals {
		t.Fatalf("want an accepted step and a rejected probe: %+v", res)
	}
	if after.OptimizeEvals-before.OptimizeEvals != uint64(res.Evals) ||
		after.Gradients-before.Gradients != uint64(res.Gradients) {
		t.Fatalf("counters moved by %d evals / %d gradients, result says %d / %d",
			after.OptimizeEvals-before.OptimizeEvals, after.Gradients-before.Gradients, res.Evals, res.Gradients)
	}
	// Zero iterations: the starting point's value and gradient only.
	res, err = Optimize(x, y, Hyper{Signal: 0.3, Length: 3, Noise: 0.5}, 0)
	if err != nil || res.Evals != 1 || res.Gradients != 1 {
		t.Fatalf("maxIter 0: %+v, %v", res, err)
	}
}

// BenchmarkColumnOptimize times the path that serves: one shared
// gp.Column (Gram base computed once, as the Prediction Step builds it)
// and the LOO optimizer on its k = 8, 16 and 32 prefixes, 5 iterations
// each, as a warm-started ensemble column does. evals/op and
// gradients/op are counts: they repeat exactly at any iteration count.
func BenchmarkColumnOptimize(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	x, y := makeData(rng, 32, 64, 0.1)
	col, err := NewColumn(x[0], x, y)
	if err != nil {
		b.Fatal(err)
	}
	defer col.Release()
	ks := []int{8, 16, 32}
	inits := make([]Hyper, len(ks))
	for i, k := range ks {
		inits[i] = HeuristicHyper(x[:k], y[:k])
	}
	var evals, grads int
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i, k := range ks {
			res, err := col.Optimize(k, inits[i], 5)
			if err != nil {
				b.Fatal(err)
			}
			evals += res.Evals
			grads += res.Gradients
		}
	}
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
	b.ReportMetric(float64(grads)/float64(b.N), "gradients/op")
}
