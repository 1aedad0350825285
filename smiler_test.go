package smiler

import (
	"math"
	"math/rand"
	"testing"

	"smiler/internal/core"
	"smiler/internal/gpusim"
	"smiler/internal/index"
)

// noisySeasonal builds a raw-unit (non-normalized) periodic signal.
func noisySeasonal(rng *rand.Rand, n int, scale, offset float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = offset + scale*(math.Sin(2*math.Pi*float64(i)/48)+
			0.3*math.Sin(2*math.Pi*float64(i)/12)) + rng.NormFloat64()*scale*0.03
	}
	return out
}

// smallConfig keeps tests fast: AR predictor, small windows.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Rho = 3
	cfg.Omega = 8
	cfg.ELV = []int{16, 24, 40}
	cfg.EKV = []int{4, 8}
	cfg.Predictor = PredictorAR
	return cfg
}

func TestPredictorKindString(t *testing.T) {
	if PredictorGP.String() != "GP" || PredictorAR.String() != "AR" {
		t.Fatal("names wrong")
	}
	if PredictorKind(7).String() == "" {
		t.Fatal("unknown kind should render")
	}
}

func TestNewValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Device.SMs = 0
	if _, err := New(bad); err == nil {
		t.Fatal("bad device config should fail")
	}
	bad = DefaultConfig()
	bad.ELV = nil
	if _, err := New(bad); err == nil {
		t.Fatal("empty ELV should fail")
	}
	bad = DefaultConfig()
	bad.EKV = nil
	if _, err := New(bad); err == nil {
		t.Fatal("empty EKV should fail")
	}
}

func TestAddPredictObserveRoundTrip(t *testing.T) {
	sys, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rng := rand.New(rand.NewSource(1))
	all := noisySeasonal(rng, 700, 12, 100) // raw units, not normalized
	warm := 600
	if err := sys.AddSensor("s1", all[:warm]); err != nil {
		t.Fatal(err)
	}
	if got := sys.Sensors(); len(got) != 1 || got[0] != "s1" {
		t.Fatalf("Sensors = %v", got)
	}
	if used, total := sys.DeviceUsage(); used <= 0 || used > total {
		t.Fatalf("device usage %d/%d", used, total)
	}

	var mae, naive float64
	for i := warm; i < len(all); i++ {
		f, err := sys.Predict("s1", 1)
		if err != nil {
			t.Fatal(err)
		}
		if f.Horizon != 1 || f.Variance <= 0 {
			t.Fatalf("forecast %+v malformed", f)
		}
		mae += math.Abs(f.Mean - all[i])
		naive += math.Abs(all[i-1] - all[i])
		if err := sys.Observe("s1", all[i]); err != nil {
			t.Fatal(err)
		}
	}
	if mae >= naive {
		t.Fatalf("MAE %v should beat persistence %v", mae/100, naive/100)
	}
	// Forecasts must be in raw units (offset ≈ 100), proving the
	// normalizer round trip.
	f, err := sys.Predict("s1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Mean < 50 || f.Mean > 150 {
		t.Fatalf("forecast %v not in raw units", f.Mean)
	}
	lo, hi := f.Interval(1.96)
	if lo >= f.Mean || hi <= f.Mean || f.StdDev() <= 0 {
		t.Fatal("interval malformed")
	}
}

func TestSensorLifecycleErrors(t *testing.T) {
	sys, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rng := rand.New(rand.NewSource(2))
	hist := noisySeasonal(rng, 400, 1, 0)
	if err := sys.AddSensor("a", hist); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddSensor("a", hist); err == nil {
		t.Fatal("duplicate sensor should fail")
	}
	if err := sys.AddSensor("short", hist[:10]); err == nil {
		t.Fatal("short history should fail")
	}
	if _, err := sys.Predict("nope", 1); err == nil {
		t.Fatal("unknown sensor should fail")
	}
	if err := sys.Observe("nope", 1); err == nil {
		t.Fatal("unknown sensor should fail")
	}
	if err := sys.RemoveSensor("nope"); err == nil {
		t.Fatal("unknown sensor should fail")
	}
	if err := sys.RemoveSensor("a"); err != nil {
		t.Fatal(err)
	}
	if used, _ := sys.DeviceUsage(); used != 0 {
		t.Fatalf("device memory leaked after removal: %d", used)
	}
	if sys.MinHistory() <= 0 {
		t.Fatal("MinHistory must be positive")
	}
}

func TestPredictAllParallel(t *testing.T) {
	sys, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rng := rand.New(rand.NewSource(3))
	obs := make(map[string]float64)
	for i := 0; i < 5; i++ {
		id := string(rune('a' + i))
		series := noisySeasonal(rng, 400, float64(i+1), float64(10*i))
		if err := sys.AddSensor(id, series[:399]); err != nil {
			t.Fatal(err)
		}
		obs[id] = series[399]
	}
	fs, err := sys.PredictAll(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 5 {
		t.Fatalf("got %d forecasts", len(fs))
	}
	for id, f := range fs {
		if f.Variance <= 0 {
			t.Fatalf("sensor %s: bad forecast %+v", id, f)
		}
	}
	if err := sys.ObserveAll(obs); err != nil {
		t.Fatal(err)
	}
	if err := sys.ObserveAll(map[string]float64{"nope": 1}); err == nil {
		t.Fatal("unknown sensor in ObserveAll should fail")
	}
}

// The Fig. 11 ablations are built the way internal/bench builds them —
// through core.PipelineConfig and its EnsembleConfig, not System options:
// SMiLerNE is one k×d cell, SMiLerNS keeps its weights uniform.
func TestAblationConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	hist := noisySeasonal(rng, 400, 1, 0)
	cfg := smallConfig()
	dev := gpusim.MustNewDevice(cfg.Device)
	ablation := func(elv, ekv []int, ecfg core.EnsembleConfig) []*core.Cell {
		t.Helper()
		p := index.Params{Rho: cfg.Rho, Omega: cfg.Omega, ELV: elv}
		ix, err := index.New(dev, hist[:399], p)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		pipe, err := core.NewPipeline(ix, core.PipelineConfig{
			EKV: ekv, Index: p, Horizon: 1, Factory: cfg.predictorFactory(), Ensemble: ecfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pipe.Predict(1); err != nil {
			t.Fatal(err)
		}
		if err := pipe.Observe(hist[399]); err != nil {
			t.Fatal(err)
		}
		return pipe.Ensemble().Cells()
	}

	ne := ablation([]int{24}, []int{8}, core.EnsembleConfig{})
	if len(ne) != 1 || ne[0].K != 8 || ne[0].D != 24 {
		t.Fatalf("NE ablation should have exactly the 8×24 cell, got %d cells", len(ne))
	}
	if w := ne[0].Weight(); math.Abs(w-1) > 1e-9 {
		t.Fatalf("single cell weight %v, want 1", w)
	}

	ns := ablation(cfg.ELV, cfg.EKV, core.EnsembleConfig{DisableAdaptation: true, DisableSleep: true})
	uniform := 1.0 / float64(len(ns))
	for _, c := range ns {
		if w := c.Weight(); math.Abs(w-uniform) > 1e-9 {
			t.Fatalf("NS ablation weight %v for %d×%d should stay uniform %v", w, c.K, c.D, uniform)
		}
	}
}

func TestCloseIdempotentAndGuards(t *testing.T) {
	sys, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	if err := sys.AddSensor("s", noisySeasonal(rng, 400, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if used, _ := sys.DeviceUsage(); used != 0 {
		t.Fatal("close must free device memory")
	}
	if err := sys.AddSensor("t", noisySeasonal(rng, 400, 1, 0)); err == nil {
		t.Fatal("AddSensor after Close should fail")
	}
	if _, err := sys.Predict("s", 1); err == nil {
		t.Fatal("Predict after Close should fail")
	}
}

func TestGPPredictorEndToEnd(t *testing.T) {
	cfg := smallConfig()
	cfg.Predictor = PredictorGP
	cfg.EKV = []int{6}
	cfg.ELV = []int{16, 24}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rng := rand.New(rand.NewSource(6))
	all := noisySeasonal(rng, 420, 7, 50)
	if err := sys.AddSensor("s", all[:400]); err != nil {
		t.Fatal(err)
	}
	var mae float64
	for i := 400; i < 420; i++ {
		f, err := sys.Predict("s", 1)
		if err != nil {
			t.Fatal(err)
		}
		mae += math.Abs(f.Mean - all[i])
		if err := sys.Observe("s", all[i]); err != nil {
			t.Fatal(err)
		}
	}
	mae /= 20
	if mae > 2.0 { // raw scale is 7·[−1.3,1.3]+50
		t.Fatalf("GP end-to-end MAE %v too high", mae)
	}
}

func TestObserveMissingReadingImputes(t *testing.T) {
	sys, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rng := rand.New(rand.NewSource(7))
	all := noisySeasonal(rng, 430, 5, 50)
	if err := sys.AddSensor("s", all[:400]); err != nil {
		t.Fatal(err)
	}
	// Predict, then lose the reading: the pending update must be
	// dropped, the gap imputed, and the stream must keep working.
	if _, err := sys.Predict("s", 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Observe("s", math.NaN()); err != nil {
		t.Fatal(err)
	}
	for i := 401; i < 420; i++ {
		f, err := sys.Predict("s", 1)
		if err != nil {
			t.Fatal(err)
		}
		if !(f.Variance > 0) || math.IsNaN(f.Mean) {
			t.Fatalf("forecast corrupted after imputation: %+v", f)
		}
		if err := sys.Observe("s", all[i]); err != nil {
			t.Fatal(err)
		}
	}
	// The imputed value must be a plausible in-range reading, so later
	// forecasts stay in raw units.
	f, err := sys.Predict("s", 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Mean < 30 || f.Mean > 70 {
		t.Fatalf("forecast %v left the signal range after imputation", f.Mean)
	}
}

func TestPredictHorizonsMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	hist := noisySeasonal(rng, 400, 4, 20)
	hs := []int{1, 3, 6}
	// One multi call vs single calls in the same horizon order: the same
	// path on the same state, so bit-identical — AR and GP (same order ⇒
	// same warm-start sequence) alike.
	var a *System
	for _, kind := range []PredictorKind{PredictorGP, PredictorAR} {
		cfg := smallConfig()
		cfg.Predictor = kind
		var err error
		a, err = New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if err := a.AddSensor("s", hist); err != nil {
			t.Fatal(err)
		}
		if err := b.AddSensor("s", hist); err != nil {
			t.Fatal(err)
		}
		multi, err := a.PredictHorizons("s", hs)
		if err != nil {
			t.Fatal(err)
		}
		if len(multi) != len(hs) {
			t.Fatalf("%v: got %d forecasts", kind, len(multi))
		}
		for _, h := range hs {
			single, err := b.Predict("s", h)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(multi[h].Mean) != math.Float64bits(single.Mean) {
				t.Fatalf("%v h=%d: mean %v vs %v", kind, h, multi[h].Mean, single.Mean)
			}
			if math.Float64bits(multi[h].Variance) != math.Float64bits(single.Variance) {
				t.Fatalf("%v h=%d: variance %v vs %v", kind, h, multi[h].Variance, single.Variance)
			}
			if multi[h].Horizon != h {
				t.Fatalf("%v h=%d: horizon field %d", kind, h, multi[h].Horizon)
			}
		}
	}
	if _, err := a.PredictHorizons("nope", hs); err == nil {
		t.Fatal("unknown sensor should fail")
	}
	if _, err := a.PredictHorizons("s", nil); err == nil {
		t.Fatal("empty horizons should fail")
	}
}
