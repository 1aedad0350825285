package gp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// makeData samples a smooth 1-feature-per-dim function with noise.
func makeData(rng *rand.Rand, n, dim int, noise float64) (x [][]float64, y []float64) {
	x = make([][]float64, n)
	y = make([]float64, n)
	for i := 0; i < n; i++ {
		xi := make([]float64, dim)
		s := 0.0
		for j := range xi {
			xi[j] = rng.NormFloat64()
			s += math.Sin(xi[j])
		}
		x[i] = xi
		y[i] = s + rng.NormFloat64()*noise
	}
	return x, y
}

func defaultHyper() Hyper { return Hyper{Signal: 1, Length: 1, Noise: 0.1} }

func TestHyperValidate(t *testing.T) {
	if err := defaultHyper().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Hyper{
		{Signal: 0, Length: 1, Noise: 1},
		{Signal: 1, Length: -1, Noise: 1},
		{Signal: 1, Length: 1, Noise: 0},
		{Signal: math.NaN(), Length: 1, Noise: 1},
	}
	for i, h := range bad {
		if err := h.Validate(); !errors.Is(err, ErrNegHyper) {
			t.Fatalf("case %d: err = %v", i, err)
		}
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, defaultHyper()); !errors.Is(err, ErrNoData) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, defaultHyper()); !errors.Is(err, ErrDims) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Fit([][]float64{{1}, {1, 2}}, []float64{1, 2}, defaultHyper()); !errors.Is(err, ErrDims) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Fit([][]float64{{1}}, []float64{1}, Hyper{}); !errors.Is(err, ErrNegHyper) {
		t.Fatalf("err = %v", err)
	}
}

func TestPredictInterpolatesTrainingData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := makeData(rng, 30, 2, 0.01)
	hp := Hyper{Signal: 1.5, Length: 1, Noise: 0.05}
	m, err := Fit(x, y, hp)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 30 || m.Hyper() != hp {
		t.Fatal("accessors wrong")
	}
	for i := range x {
		mean, v, err := m.Predict(x[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mean-y[i]) > 0.2 {
			t.Fatalf("point %d: mean %v far from target %v", i, mean, y[i])
		}
		if v <= 0 {
			t.Fatalf("point %d: nonpositive variance %v", i, v)
		}
	}
}

func TestPredictRevertsToPriorFarAway(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := makeData(rng, 20, 1, 0.05)
	hp := Hyper{Signal: 1, Length: 0.5, Noise: 0.1}
	m, err := Fit(x, y, hp)
	if err != nil {
		t.Fatal(err)
	}
	mean, v, err := m.Predict([]float64{1e3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean) > 1e-6 {
		t.Fatalf("far-field mean %v, want ≈0", mean)
	}
	prior := hp.Signal*hp.Signal + hp.Noise*hp.Noise
	if math.Abs(v-prior) > 1e-6 {
		t.Fatalf("far-field variance %v, want prior %v", v, prior)
	}
}

func TestPredictVarianceShrinksNearData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := makeData(rng, 25, 1, 0.05)
	m, err := Fit(x, y, Hyper{Signal: 1, Length: 1, Noise: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	_, vNear, err := m.Predict(x[0])
	if err != nil {
		t.Fatal(err)
	}
	_, vFar, err := m.Predict([]float64{50})
	if err != nil {
		t.Fatal(err)
	}
	if vNear >= vFar {
		t.Fatalf("variance near data (%v) should be < far from data (%v)", vNear, vFar)
	}
}

func TestPredictDimError(t *testing.T) {
	m, err := Fit([][]float64{{1, 2}}, []float64{1}, defaultHyper())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Predict([]float64{1}); !errors.Is(err, ErrDimInput) {
		t.Fatalf("err = %v", err)
	}
}

// LOO via the partitioned inverse must equal brute-force leave-one-out
// refitting — the identity the online training relies on.
func TestLOOMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := makeData(rng, 14, 2, 0.1)
	hp := Hyper{Signal: 1.2, Length: 0.8, Noise: 0.2}
	m, err := Fit(x, y, hp)
	if err != nil {
		t.Fatal(err)
	}
	means, vars, err := looResiduals(m)
	if err != nil {
		t.Fatal(err)
	}
	var wantLL float64
	for i := range x {
		// Refit without point i.
		var xs [][]float64
		var ys []float64
		for j := range x {
			if j != i {
				xs = append(xs, x[j])
				ys = append(ys, y[j])
			}
		}
		mi, err := Fit(xs, ys, hp)
		if err != nil {
			t.Fatal(err)
		}
		mu, v, err := mi.Predict(x[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mu-means[i]) > 1e-6 {
			t.Fatalf("point %d: LOO mean %v vs brute %v", i, means[i], mu)
		}
		if math.Abs(v-vars[i]) > 1e-6 {
			t.Fatalf("point %d: LOO var %v vs brute %v", i, vars[i], v)
		}
		d := y[i] - mu
		wantLL += -0.5*math.Log(v) - d*d/(2*v) - 0.5*math.Log(2*math.Pi)
	}
	ll, err := m.LOO()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ll-wantLL) > 1e-6 {
		t.Fatalf("LOO %v vs brute-force %v", ll, wantLL)
	}
}

// The analytic gradient must match central finite differences.
func TestLOOGradientFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := makeData(rng, 12, 2, 0.15)
	hp := Hyper{Signal: 0.9, Length: 1.1, Noise: 0.25}
	scr := newEvalScratch(len(y))
	defer scr.release()
	_, grad, err := valueGrad(looObjective, directSet(x, y), hp, scr)
	if err != nil {
		t.Fatal(err)
	}
	psi := toLog(hp)
	const eps = 1e-5
	for p := 0; p < 3; p++ {
		up, dn := psi, psi
		up[p] += eps
		dn[p] -= eps
		fu, err := looValue(directSet(x, y), up.hyper(), scr)
		if err != nil {
			t.Fatal(err)
		}
		fd, err := looValue(directSet(x, y), dn.hyper(), scr)
		if err != nil {
			t.Fatal(err)
		}
		num := (fu - fd) / (2 * eps)
		if math.Abs(num-grad[p]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("param %d: analytic %v vs numeric %v", p, grad[p], num)
		}
	}
}

func TestOptimizeImprovesLOO(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, y := makeData(rng, 24, 2, 0.1)
	init := Hyper{Signal: 0.3, Length: 3, Noise: 0.5} // deliberately bad
	m0, err := Fit(x, y, init)
	if err != nil {
		t.Fatal(err)
	}
	ll0, err := m0.LOO()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(x, y, init, 25)
	if err != nil {
		t.Fatal(err)
	}
	if res.LOO < ll0 {
		t.Fatalf("optimization worsened LOO: %v -> %v", ll0, res.LOO)
	}
	if res.LOO-ll0 < 1 {
		t.Fatalf("optimization barely moved: %v -> %v", ll0, res.LOO)
	}
	if err := res.Hyper.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Evals == 0 {
		t.Fatal("Evals not counted")
	}
}

func TestOptimizeArgErrors(t *testing.T) {
	x := [][]float64{{1}, {2}}
	y := []float64{1, 2}
	if _, err := Optimize(x, y, Hyper{}, 5); err == nil {
		t.Fatal("invalid init should fail")
	}
	if _, err := Optimize(x, y, defaultHyper(), -1); err == nil {
		t.Fatal("negative maxIter should fail")
	}
}

func TestOptimizeZeroIterationsIsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, y := makeData(rng, 10, 1, 0.1)
	res, err := Optimize(x, y, defaultHyper(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := defaultHyper()
	if res.Evals != 1 ||
		math.Abs(res.Hyper.Signal-want.Signal) > 1e-12 ||
		math.Abs(res.Hyper.Length-want.Length) > 1e-12 ||
		math.Abs(res.Hyper.Noise-want.Noise) > 1e-12 {
		t.Fatalf("res = %+v", res)
	}
}

func TestHeuristicHyper(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, y := makeData(rng, 40, 3, 0.1)
	hp := HeuristicHyper(x, y)
	if err := hp.Validate(); err != nil {
		t.Fatal(err)
	}
	// Degenerate inputs still give usable seeds.
	hp = HeuristicHyper([][]float64{{1}}, []float64{2})
	if err := hp.Validate(); err != nil {
		t.Fatal(err)
	}
	hp = HeuristicHyper([][]float64{{1}, {1}}, []float64{2, 2})
	if err := hp.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Property: predictions are finite with positive variance for random
// smooth data and sane hyperparameters.
func TestQuickPredictWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		dim := 1 + rng.Intn(5)
		x, y := makeData(rng, n, dim, 0.2)
		hp := Hyper{
			Signal: 0.2 + rng.Float64()*2,
			Length: 0.2 + rng.Float64()*2,
			Noise:  0.05 + rng.Float64(),
		}
		m, err := Fit(x, y, hp)
		if err != nil {
			return false
		}
		probe := make([]float64, dim)
		for j := range probe {
			probe[j] = rng.NormFloat64() * 2
		}
		mean, v, err := m.Predict(probe)
		if err != nil {
			return false
		}
		return !math.IsNaN(mean) && !math.IsInf(mean, 0) && v > 0 &&
			v <= hp.Signal*hp.Signal+hp.Noise*hp.Noise+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: duplicated training points (the overlapping-segment case
// the semi-lazy kNN sets produce) stay numerically stable thanks to
// the noise diagonal and the jitter ladder.
func TestQuickDuplicatedPointsStable(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := []float64{rng.NormFloat64(), rng.NormFloat64()}
		n := 4 + rng.Intn(20)
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = []float64{base[0], base[1]} // identical inputs
			y[i] = rng.NormFloat64()
		}
		m, err := Fit(x, y, Hyper{Signal: 1, Length: 1, Noise: 0.1})
		if err != nil {
			return false
		}
		mean, v, err := m.Predict(base)
		return err == nil && !math.IsNaN(mean) && v > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFitPredict32(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x, y := makeData(rng, 32, 64, 0.1)
	probe := x[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := Fit(x, y, defaultHyper())
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := m.Predict(probe); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimize32x5(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	x, y := makeData(rng, 32, 64, 0.1)
	init := HeuristicHyper(x, y)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(x, y, init, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// looResiduals returns the per-point leave-one-out predictive means and
// variances through the partitioned inverse.
func looResiduals(m *Model) (means, variances []float64, err error) {
	kinv, err := m.kinvMatrix()
	if err != nil {
		return nil, nil, err
	}
	n := len(m.y)
	means = make([]float64, n)
	variances = make([]float64, n)
	for i := 0; i < n; i++ {
		kii := kinv.At(i, i)
		if kii <= 0 {
			return nil, nil, ErrCondition
		}
		variances[i] = 1 / kii
		means[i] = m.y[i] - m.alpha[i]/kii
	}
	return means, variances, nil
}
