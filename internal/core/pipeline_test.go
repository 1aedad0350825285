package core

import (
	"math"
	"math/rand"
	"testing"

	"smiler/internal/gpusim"
	"smiler/internal/index"
)

// seasonal synthesizes a noisy periodic signal — the regime where the
// semi-lazy kNN sets contain genuinely similar patterns.
func seasonal(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Sin(2*math.Pi*float64(i)/48) +
			0.4*math.Sin(2*math.Pi*float64(i)/12) +
			rng.NormFloat64()*0.05
	}
	return out
}

func testPipeline(t *testing.T, factory PredictorFactory, ecfg EnsembleConfig, hist []float64) *Pipeline {
	t.Helper()
	dev := gpusim.MustNewDevice(gpusim.DefaultConfig())
	p := index.Params{Rho: 3, Omega: 8, ELV: []int{16, 24, 40}}
	ix, err := index.New(dev, hist, p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	cfg := PipelineConfig{
		EKV:      []int{4, 8},
		Index:    p,
		Horizon:  1,
		Factory:  factory,
		Ensemble: ecfg,
	}
	pl, err := NewPipeline(ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestNewPipelineErrors(t *testing.T) {
	if _, err := NewPipeline(nil, DefaultPipelineConfig()); err == nil {
		t.Fatal("nil index")
	}
	rng := rand.New(rand.NewSource(1))
	dev := gpusim.MustNewDevice(gpusim.DefaultConfig())
	p := index.Params{Rho: 3, Omega: 8, ELV: []int{16, 24}}
	ix, err := index.New(dev, seasonal(rng, 300), p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	bad := PipelineConfig{EKV: []int{4}, Horizon: 0}
	if _, err := NewPipeline(ix, bad); err == nil {
		t.Fatal("horizon 0")
	}
	bad = PipelineConfig{EKV: nil, Horizon: 1}
	if _, err := NewPipeline(ix, bad); err == nil {
		t.Fatal("empty EKV")
	}
}

func TestDefaultPipelineConfig(t *testing.T) {
	cfg := DefaultPipelineConfig()
	if len(cfg.EKV) != 3 || cfg.Horizon != 1 || cfg.Factory == nil {
		t.Fatalf("unexpected defaults %+v", cfg)
	}
	if cfg.Factory().Name() != "GP" {
		t.Fatal("default predictor should be GP")
	}
}

func TestPipelinePredictObserveLoopAR(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	all := seasonal(rng, 560)
	warm := 500
	pl := testPipeline(t, func() Predictor { return NewAR() }, EnsembleConfig{}, all[:warm])

	var absErr, naiveErr float64
	steps := 0
	for i := warm; i < len(all); i++ {
		pred, err := pl.Predict(1)
		if err != nil {
			t.Fatal(err)
		}
		if !pred.Valid() {
			t.Fatalf("invalid prediction %+v", pred)
		}
		truth := all[i]
		absErr += math.Abs(pred.Mean - truth)
		naiveErr += math.Abs(all[i-1] - truth) // persistence baseline
		if err := pl.Observe(truth); err != nil {
			t.Fatal(err)
		}
		steps++
	}
	if pl.PendingUpdates() != 0 {
		t.Fatalf("pending updates left: %d", pl.PendingUpdates())
	}
	if absErr >= naiveErr {
		t.Fatalf("semi-lazy MAE %v should beat persistence %v on seasonal data",
			absErr/float64(steps), naiveErr/float64(steps))
	}
}

func TestPipelinePredictGP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	all := seasonal(rng, 520)
	warm := 500
	pl := testPipeline(t, func() Predictor { return NewGP() }, EnsembleConfig{}, all[:warm])
	var absErr float64
	for i := warm; i < len(all); i++ {
		pred, err := pl.Predict(1)
		if err != nil {
			t.Fatal(err)
		}
		if !pred.Valid() {
			t.Fatalf("invalid prediction %+v", pred)
		}
		absErr += math.Abs(pred.Mean - all[i])
		if err := pl.Observe(all[i]); err != nil {
			t.Fatal(err)
		}
	}
	mae := absErr / 20
	if mae > 0.25 {
		t.Fatalf("GP pipeline MAE %v too high on clean seasonal data", mae)
	}
}

func TestPipelineMultiHorizonPending(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	all := seasonal(rng, 515)
	warm := 500
	pl := testPipeline(t, func() Predictor { return NewAR() }, EnsembleConfig{}, all[:warm])
	const h = 5
	if _, err := pl.Predict(h); err != nil {
		t.Fatal(err)
	}
	if pl.PendingUpdates() != 1 {
		t.Fatalf("pending = %d, want 1", pl.PendingUpdates())
	}
	// The update should fire exactly when the h-th observation lands.
	for i := 0; i < h-1; i++ {
		if err := pl.Observe(all[warm+i]); err != nil {
			t.Fatal(err)
		}
		if pl.PendingUpdates() != 1 {
			t.Fatalf("pending resolved too early at step %d", i)
		}
	}
	if err := pl.Observe(all[warm+h-1]); err != nil {
		t.Fatal(err)
	}
	if pl.PendingUpdates() != 0 {
		t.Fatal("pending update not resolved at its target step")
	}
	if _, err := pl.Predict(0); err == nil {
		t.Fatal("h=0 should fail")
	}
	if pl.Index() == nil || pl.Ensemble() == nil {
		t.Fatal("accessors wrong")
	}
}

func TestPredictMultiMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	all := seasonal(rng, 520)
	warm := 500
	hs := []int{1, 4, 9}
	// Two pipelines over identical state: one multi call vs repeated
	// single calls in the same horizon order are the same code run on
	// the same inputs, so the mixtures are bit-identical — for stateless
	// AR cells and for GP cells alike (same order ⇒ same warm-start
	// sequence).
	var a *Pipeline
	for _, factory := range []PredictorFactory{
		func() Predictor { return NewGP() },
		func() Predictor { return NewAR() },
	} {
		name := factory().Name()
		a = testPipeline(t, factory, EnsembleConfig{}, all[:warm])
		b := testPipeline(t, factory, EnsembleConfig{}, all[:warm])
		multi, err := a.PredictMulti(hs)
		if err != nil {
			t.Fatal(err)
		}
		if len(multi) != len(hs) {
			t.Fatalf("%s: got %d predictions", name, len(multi))
		}
		for _, h := range hs {
			single, err := b.Predict(h)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(multi[h].Mean) != math.Float64bits(single.Mean) {
				t.Fatalf("%s h=%d: mean %v vs %v", name, h, multi[h].Mean, single.Mean)
			}
			if math.Float64bits(multi[h].Variance) != math.Float64bits(single.Variance) {
				t.Fatalf("%s h=%d: variance %v vs %v", name, h, multi[h].Variance, single.Variance)
			}
		}
	}
	// Pending updates queue one entry per horizon and resolve on the
	// matching observations.
	if a.PendingUpdates() != len(hs) {
		t.Fatalf("pending = %d, want %d", a.PendingUpdates(), len(hs))
	}
	for i := 0; i < 9; i++ {
		if err := a.Observe(all[warm+i]); err != nil {
			t.Fatal(err)
		}
	}
	if a.PendingUpdates() != 0 {
		t.Fatalf("pending = %d after maturity, want 0", a.PendingUpdates())
	}
	if _, err := a.PredictMulti(nil); err == nil {
		t.Fatal("empty horizons should fail")
	}
	if _, err := a.PredictMulti([]int{0}); err == nil {
		t.Fatal("h=0 should fail")
	}
}
