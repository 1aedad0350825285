package baselines

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSegmentDataset(t *testing.T) {
	series := []float64{0, 1, 2, 3, 4, 5}
	x, y, err := SegmentDataset(series, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Starts 0..3: segment [s,s+2), label at s+2.
	if len(x) != 4 || len(y) != 4 {
		t.Fatalf("got %d pairs", len(x))
	}
	if x[0][0] != 0 || x[0][1] != 1 || y[0] != 2 {
		t.Fatalf("pair 0 = %v -> %v", x[0], y[0])
	}
	if y[3] != 5 {
		t.Fatalf("last label = %v", y[3])
	}
	// maxPairs keeps the most recent pairs.
	x, y, err = SegmentDataset(series, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != 2 || y[1] != 5 {
		t.Fatalf("maxPairs wrong: %v", y)
	}
	if _, _, err := SegmentDataset(series, 0, 1, 0); err == nil {
		t.Fatal("d=0 should fail")
	}
	if _, _, err := SegmentDataset(series, 2, 0, 0); err == nil {
		t.Fatal("h=0 should fail")
	}
	if _, _, err := SegmentDataset([]float64{1, 2}, 4, 1, 0); !errors.Is(err, ErrNoData) {
		t.Fatal("short series should fail")
	}
}

// sineDataset builds segment→label pairs from a clean sinusoid.
func sineDataset(n, d int) (x [][]float64, y []float64, probe []float64, truth float64) {
	series := make([]float64, n+d+1)
	for i := range series {
		series[i] = math.Sin(2 * math.Pi * float64(i) / 24)
	}
	x, y, _ = SegmentDataset(series[:n], d, 1, 0)
	probe = series[n-d : n]
	truth = series[n]
	return
}

func TestSparseGPTrainPredict(t *testing.T) {
	for _, mk := range []func(int) *SparseGP{NewPSGP, NewVLGP} {
		m := mk(24)
		x, y, probe, truth := sineDataset(400, 8)
		if _, err := m.Predict(probe); !errors.Is(err, ErrNotTrained) {
			t.Fatalf("%s: err = %v", m.Name(), err)
		}
		if err := m.Train(x, y); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		p, err := m.Predict(probe)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p.Mean-truth) > 0.15 {
			t.Fatalf("%s: predicted %v, truth %v", m.Name(), p.Mean, truth)
		}
		if p.Variance <= 0 {
			t.Fatalf("%s: variance %v", m.Name(), p.Variance)
		}
		if _, err := m.Predict([]float64{1}); !errors.Is(err, ErrDims) {
			t.Fatalf("%s: dim err = %v", m.Name(), err)
		}
	}
}

func TestSparseGPMoreActivePointsHelp(t *testing.T) {
	// A random walk is rich enough that a rank-2 projection must
	// underfit while a rank-64 one tracks it — the Fig. 13 shape.
	rng := rand.New(rand.NewSource(7))
	n := 800
	series := make([]float64, n)
	v := 0.0
	for i := range series {
		v += rng.NormFloat64() * 0.3
		series[i] = v
	}
	x, y, err := SegmentDataset(series, 12, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	small := NewPSGP(2)
	big := NewPSGP(64)
	if err := small.Train(x, y); err != nil {
		t.Fatal(err)
	}
	if err := big.Train(x, y); err != nil {
		t.Fatal(err)
	}
	var maeSmall, maeBig float64
	for i := 0; i < len(x); i += 10 {
		ps, err := small.Predict(x[i])
		if err != nil {
			t.Fatal(err)
		}
		pb, err := big.Predict(x[i])
		if err != nil {
			t.Fatal(err)
		}
		maeSmall += math.Abs(ps.Mean - y[i])
		maeBig += math.Abs(pb.Mean - y[i])
	}
	if maeBig >= maeSmall {
		t.Fatalf("64 active points (MAE sum %v) should beat 2 (%v)", maeBig, maeSmall)
	}
}

func TestSparseGPErrors(t *testing.T) {
	m := NewPSGP(0)
	x, y, _, _ := sineDataset(100, 4)
	if err := m.Train(x, y); err == nil {
		t.Fatal("m=0 should fail")
	}
	if err := NewPSGP(4).Train(nil, nil); !errors.Is(err, ErrNoData) {
		t.Fatal("empty training should fail")
	}
}

func TestLinearSVRLearnsLinearMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, d := 500, 4
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		xi := make([]float64, d)
		for j := range xi {
			xi[j] = rng.NormFloat64()
		}
		x[i] = xi
		y[i] = 0.8*xi[0] - 0.3*xi[2] + 0.1 + rng.NormFloat64()*0.02
	}
	for _, m := range []*linearModel{NewSgdSVR(), NewSgdRR()} {
		if _, err := m.Predict(x[0]); !errors.Is(err, ErrNotTrained) {
			t.Fatalf("%s: err = %v", m.Name(), err)
		}
		if err := m.Train(x, y); err != nil {
			t.Fatal(err)
		}
		var mae float64
		for i := 0; i < 50; i++ {
			p, err := m.Predict(x[i])
			if err != nil {
				t.Fatal(err)
			}
			mae += math.Abs(p.Mean - y[i])
			if p.Variance <= 0 {
				t.Fatalf("%s: variance %v", m.Name(), p.Variance)
			}
		}
		mae /= 50
		if mae > 0.1 {
			t.Fatalf("%s: MAE %v too high for a linear map", m.Name(), mae)
		}
		if _, err := m.Predict([]float64{1}); !errors.Is(err, ErrDims) {
			t.Fatalf("%s: dim err = %v", m.Name(), err)
		}
	}
}

func TestOnlineModelsConverge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, m := range []*linearModel{NewOnlineSVR(), NewOnlineRR()} {
		for i := 0; i < 3000; i++ {
			x := []float64{rng.NormFloat64(), rng.NormFloat64()}
			y := 0.5*x[0] - 0.25*x[1] + rng.NormFloat64()*0.02
			if err := m.Update(x, y); err != nil {
				t.Fatal(err)
			}
		}
		probe := []float64{1, 1}
		p, err := m.Predict(probe)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p.Mean-0.25) > 0.1 {
			t.Fatalf("%s: predicted %v, want ≈0.25", m.Name(), p.Mean)
		}
		if err := m.Update([]float64{1}, 0); !errors.Is(err, ErrDims) {
			t.Fatalf("%s: dim err = %v", m.Name(), err)
		}
	}
}

func TestGradientScaleBranches(t *testing.T) {
	svr := NewSgdSVR()
	svr.defaults()
	if svr.gradientScale(svr.Epsilon/2) != 0 {
		t.Fatal("inside the tube should be 0")
	}
	if svr.gradientScale(1) != 1 || svr.gradientScale(-1) != -1 {
		t.Fatal("outside the tube should be ±1")
	}
	rr := NewSgdRR()
	rr.defaults()
	if rr.gradientScale(0.5) != 0.5 {
		t.Fatal("quadratic region should be identity")
	}
	if rr.gradientScale(5) != rr.Delta || rr.gradientScale(-5) != -rr.Delta {
		t.Fatal("linear region should clip at ±δ")
	}
}

func TestNysSVRFitsNonlinearData(t *testing.T) {
	m := NewNysSVR(32)
	if m.Name() != "NysSVR" {
		t.Fatal("name wrong")
	}
	x, y, probe, truth := sineDataset(500, 8)
	if _, err := m.Predict(probe); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("err = %v", err)
	}
	if err := m.Train(x, y); err != nil {
		t.Fatal(err)
	}
	p, err := m.Predict(probe)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Mean-truth) > 0.15 {
		t.Fatalf("predicted %v, truth %v", p.Mean, truth)
	}
	if p.Variance <= 0 {
		t.Fatal("variance must be positive")
	}
	if err := NewNysSVR(0).Train(x, y); err == nil {
		t.Fatal("rank 0 should fail")
	}
	if _, err := m.Predict([]float64{1}); !errors.Is(err, ErrDims) {
		t.Fatalf("dim err = %v", err)
	}
}

func TestLazyKNNPredictsPeriodicSeries(t *testing.T) {
	n := 2000
	series := make([]float64, n)
	for i := range series {
		series[i] = math.Sin(2*math.Pi*float64(i)/48) + 0.02*math.Cos(float64(i))
	}
	l := &LazyKNN{K: 8, D: 32, Rho: 4}
	if l.Name() != "LazyKNN" {
		t.Fatal("name wrong")
	}
	p, err := l.Predict(series[:n-1], 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Mean-series[n-1]) > 0.1 {
		t.Fatalf("predicted %v, truth %v", p.Mean, series[n-1])
	}
	if p.Variance <= 0 {
		t.Fatal("variance must be positive")
	}
	if _, err := l.Predict(series[:20], 1); err == nil {
		t.Fatal("short history should fail")
	}
	if _, err := l.Predict(series, 0); err == nil {
		t.Fatal("h=0 should fail")
	}
	if _, err := (&LazyKNN{}).Predict(series, 1); err == nil {
		t.Fatal("zero config should fail")
	}
	if NewLazyKNN().K != 32 {
		t.Fatal("default config wrong")
	}
}

func TestHoltWintersForecastsSeasonalSeries(t *testing.T) {
	period := 24
	n := period * 20
	series := make([]float64, n)
	for i := range series {
		series[i] = 5 + 2*math.Sin(2*math.Pi*float64(i)/float64(period)) + 0.01*float64(i)/float64(period)
	}
	hw := NewFullHW(period)
	if hw.Name() != "FullHW" {
		t.Fatal("name wrong")
	}
	if _, err := hw.Forecast(1); !errors.Is(err, ErrNotTrained) {
		t.Fatalf("err = %v", err)
	}
	if err := hw.Fit(series); err != nil {
		t.Fatal(err)
	}
	for _, h := range []int{1, 5, period} {
		want := 5 + 2*math.Sin(2*math.Pi*float64(n-1+h)/float64(period)) + 0.01*float64(n-1+h)/float64(period)
		p, err := hw.Forecast(h)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p.Mean-want) > 0.3 {
			t.Fatalf("h=%d: forecast %v, want %v", h, p.Mean, want)
		}
		if p.Variance <= 0 {
			t.Fatalf("h=%d: variance %v", h, p.Variance)
		}
	}
	// Uncertainty must widen with the horizon.
	p1, _ := hw.Forecast(1)
	p10, _ := hw.Forecast(10)
	if p10.Variance <= p1.Variance {
		t.Fatalf("variance should grow with h: %v vs %v", p1.Variance, p10.Variance)
	}
	a, b, g := hw.Params()
	for _, v := range []float64{a, b, g} {
		if v < 0.05 || v > 0.8 {
			t.Fatalf("fitted param %v outside grid", v)
		}
	}
	if _, err := hw.Forecast(0); err == nil {
		t.Fatal("h=0 should fail")
	}
}

func TestHoltWintersWindowAndErrors(t *testing.T) {
	period := 12
	series := make([]float64, period*30)
	for i := range series {
		series[i] = math.Sin(2 * math.Pi * float64(i) / float64(period))
	}
	seg := NewSegHW(period, 5)
	if seg.Name() != "SegHW" || seg.Window != period*5 {
		t.Fatal("SegHW config wrong")
	}
	if err := seg.Fit(series); err != nil {
		t.Fatal(err)
	}
	if _, err := seg.Forecast(3); err != nil {
		t.Fatal(err)
	}
	if err := NewFullHW(1).Fit(series); err == nil {
		t.Fatal("period 1 should fail")
	}
	if err := NewFullHW(period).Fit(series[:period]); !errors.Is(err, ErrNoData) {
		t.Fatal("short series should fail")
	}
}

// Property: all offline regressors produce finite predictions with
// positive variance on random walks.
func TestQuickRegressorsWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 120 + rng.Intn(200)
		series := make([]float64, n)
		v := 0.0
		for i := range series {
			v += rng.NormFloat64() * 0.3
			series[i] = v
		}
		x, y, err := SegmentDataset(series, 8, 1, 0)
		if err != nil {
			return false
		}
		probe := series[n-8:]
		for _, m := range []Regressor{NewPSGP(8), NewVLGP(8), NewNysSVR(8), NewSgdSVR(), NewSgdRR()} {
			if err := m.Train(x, y); err != nil {
				return false
			}
			p, err := m.Predict(probe)
			if err != nil {
				return false
			}
			if math.IsNaN(p.Mean) || math.IsInf(p.Mean, 0) || p.Variance <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestLazyKNNBootstrap(t *testing.T) {
	n := 1500
	series := make([]float64, n)
	for i := range series {
		series[i] = math.Sin(2*math.Pi*float64(i)/48) + 0.05*math.Cos(float64(i)*1.7)
	}
	b := &LazyKNNBootstrap{K: 8, D: 32, Rho: 4, B: 50, Seed: 3}
	if b.Name() != "LazyKNN-Bootstrap" {
		t.Fatal("name wrong")
	}
	p, err := b.Predict(series[:n-1], 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Mean-series[n-1]) > 0.15 {
		t.Fatalf("predicted %v, truth %v", p.Mean, series[n-1])
	}
	if p.Variance <= 0 {
		t.Fatal("variance must be positive")
	}
	// The bootstrap mean should agree with the plain LazyKNN mean
	// (same neighbour pool), while the variance construction differs.
	plain := &LazyKNN{K: 8, D: 32, Rho: 4}
	pp, err := plain.Predict(series[:n-1], 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Mean-pp.Mean) > 0.1 {
		t.Fatalf("bootstrap mean %v far from plain %v", p.Mean, pp.Mean)
	}
	// Determinism under a fixed seed.
	p2, err := b.Predict(series[:n-1], 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mean != p2.Mean || p.Variance != p2.Variance {
		t.Fatal("bootstrap should be deterministic under a fixed seed")
	}
	// Error paths.
	if _, err := b.Predict(series[:10], 1); err == nil {
		t.Fatal("short history should fail")
	}
	if _, err := b.Predict(series, 0); err == nil {
		t.Fatal("h=0 should fail")
	}
	if _, err := (&LazyKNNBootstrap{}).Predict(series, 1); err == nil {
		t.Fatal("zero config should fail")
	}
}
