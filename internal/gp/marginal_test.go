package gp

import (
	"math"
	"math/rand"
	"testing"
)

func TestMarginalLikelihoodKnownValue(t *testing.T) {
	// One point, pure noise covariance: C = θ₀²+θ₂² = 2,
	// logZ = −½·y²/2 − ½·log 2 − ½·log 2π.
	m, err := Fit([][]float64{{0}}, []float64{1}, Hyper{Signal: 1, Length: 1, Noise: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := -0.5*0.5 - 0.5*math.Log(2) - 0.5*math.Log(2*math.Pi)
	if got := m.MarginalLikelihood(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("logZ = %v, want %v", got, want)
	}
}

// The analytic ML gradient must match central finite differences.
func TestMLGradientFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := makeData(rng, 12, 2, 0.15)
	hp := Hyper{Signal: 0.9, Length: 1.1, Noise: 0.25}
	scr := newEvalScratch(len(y))
	defer scr.release()
	_, grad, err := valueGrad(mlObjective, directSet(x, y), hp, scr)
	if err != nil {
		t.Fatal(err)
	}
	psi := toLog(hp)
	const eps = 1e-5
	for p := 0; p < 3; p++ {
		up, dn := psi, psi
		up[p] += eps
		dn[p] -= eps
		fu, err := mlValue(directSet(x, y), up.hyper(), scr)
		if err != nil {
			t.Fatal(err)
		}
		fd, err := mlValue(directSet(x, y), dn.hyper(), scr)
		if err != nil {
			t.Fatal(err)
		}
		num := (fu - fd) / (2 * eps)
		if math.Abs(num-grad[p]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("param %d: analytic %v vs numeric %v", p, grad[p], num)
		}
	}
}

func TestOptimizeMLImprovesObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := makeData(rng, 24, 2, 0.1)
	init := Hyper{Signal: 0.3, Length: 3, Noise: 0.5}
	m0, err := Fit(x, y, init)
	if err != nil {
		t.Fatal(err)
	}
	before := m0.MarginalLikelihood()
	res, err := OptimizeML(x, y, init, 25)
	if err != nil {
		t.Fatal(err)
	}
	if res.LOO <= before {
		t.Fatalf("ML optimization did not improve: %v -> %v", before, res.LOO)
	}
	if err := res.Hyper.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := OptimizeML(x, y, Hyper{}, 5); err == nil {
		t.Fatal("invalid init should fail")
	}
	if _, err := OptimizeML(x, y, init, -1); err == nil {
		t.Fatal("negative maxIter should fail")
	}
}

// TestMLvsLOO: both objectives, optimized from the same seed on clean
// data, should land on hyperparameters that predict comparably well —
// the Sundararajan–Keerthi comparison in miniature.
func TestMLvsLOO(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := makeData(rng, 30, 2, 0.1)
	probeX, probeY := makeData(rng, 20, 2, 0.1)
	init := HeuristicHyper(x, y)

	evalMAE := func(hp Hyper) float64 {
		m, err := Fit(x, y, hp)
		if err != nil {
			t.Fatal(err)
		}
		var mae float64
		for i := range probeX {
			mean, _, err := m.Predict(probeX[i])
			if err != nil {
				t.Fatal(err)
			}
			mae += math.Abs(mean - probeY[i])
		}
		return mae / float64(len(probeX))
	}

	loo, err := Optimize(x, y, init, 20)
	if err != nil {
		t.Fatal(err)
	}
	ml, err := OptimizeML(x, y, init, 20)
	if err != nil {
		t.Fatal(err)
	}
	mLOO, mML := evalMAE(loo.Hyper), evalMAE(ml.Hyper)
	// Both should be in the same ballpark on well-specified data
	// (within 2× of each other), and both should beat the raw seed.
	seed := evalMAE(init)
	if mLOO > 2*mML && mML > 2*mLOO {
		t.Fatalf("objectives diverged wildly: LOO %v vs ML %v", mLOO, mML)
	}
	if mLOO > seed*1.5 || mML > seed*1.5 {
		t.Fatalf("optimization should not hurt: seed %v, LOO %v, ML %v", seed, mLOO, mML)
	}
}

func TestPosteriorSampleMomentsMatchPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := makeData(rng, 20, 1, 0.1)
	m, err := Fit(x, y, Hyper{Signal: 1, Length: 1, Noise: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	probe := [][]float64{{0.3}, {5.0}}
	const draws = 6000
	sums := make([]float64, len(probe))
	sqs := make([]float64, len(probe))
	for i := 0; i < draws; i++ {
		s, err := m.PosteriorSample(probe, rng.NormFloat64)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range s {
			sums[j] += v
			sqs[j] += v * v
		}
	}
	for j, p := range probe {
		wantMean, wantVar, err := m.Predict(p)
		if err != nil {
			t.Fatal(err)
		}
		gotMean := sums[j] / draws
		gotVar := sqs[j]/draws - gotMean*gotMean
		if math.Abs(gotMean-wantMean) > 0.08 {
			t.Fatalf("probe %d: sample mean %v vs predictive %v", j, gotMean, wantMean)
		}
		if math.Abs(gotVar-wantVar) > 0.15*wantVar+0.03 {
			t.Fatalf("probe %d: sample var %v vs predictive %v", j, gotVar, wantVar)
		}
	}
}

func TestPosteriorSampleErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := makeData(rng, 8, 2, 0.1)
	m, err := Fit(x, y, Hyper{Signal: 1, Length: 1, Noise: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.PosteriorSample(nil, rng.NormFloat64); err == nil {
		t.Fatal("empty inputs should fail")
	}
	if _, err := m.PosteriorSample([][]float64{{1}}, rng.NormFloat64); err == nil {
		t.Fatal("dim mismatch should fail")
	}
	if _, err := m.PosteriorSample([][]float64{{1, 2}}, nil); err == nil {
		t.Fatal("nil normal source should fail")
	}
}
