package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"smiler/internal/gpusim"
	"smiler/internal/index"
	"smiler/internal/obs"
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

// An observation the index refuses (its device cannot grow) must leave
// the pipeline as it was: the matured prediction stays queued and the
// ensemble is not reweighted, so the retry closes the loop exactly once.
func TestRefusedObserveKeepsPendingUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	all := seasonal(rng, 340)
	const warm = 300
	p := index.Params{Rho: 3, Omega: 8, ELV: []int{16, 24, 40}}
	probe := gpusim.MustNewDevice(gpusim.DefaultConfig())
	ixProbe, err := index.New(probe, all[:warm], p)
	if err != nil {
		t.Fatal(err)
	}
	footprint := probe.UsedBytes()
	ixProbe.Close()

	const hogBytes = 1 << 20
	cfg := gpusim.DefaultConfig()
	cfg.GlobalMemBytes = footprint + hogBytes + 64
	dev := gpusim.MustNewDevice(cfg)
	hog, err := dev.Malloc("hog", hogBytes)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.New(dev, all[:warm], p)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	pl, err := NewPipeline(ix, PipelineConfig{EKV: []int{4, 8}, Index: p, Horizon: 1,
		Factory: func() Predictor { return NewAR() }})
	if err != nil {
		t.Fatal(err)
	}
	next := warm
	for ; next < len(all); next++ {
		if _, err := pl.Predict(1); err != nil {
			t.Fatal(err)
		}
		if err = pl.Observe(all[next]); err != nil {
			break
		}
	}
	if !errors.Is(err, gpusim.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory while the hog holds the headroom", err)
	}
	if pl.PendingUpdates() != 1 {
		t.Fatalf("refused Observe left %d pending updates, want the matured one kept", pl.PendingUpdates())
	}
	before := pl.Ensemble().ExportState()
	if err := pl.Observe(all[next]); !errors.Is(err, gpusim.ErrOutOfMemory) {
		t.Fatalf("retry err = %v, want ErrOutOfMemory again", err)
	}
	for i, st := range pl.Ensemble().ExportState() {
		if st != before[i] {
			t.Fatalf("cell %d reweighted by a refused observation: %+v vs %+v", i, st, before[i])
		}
	}
	if err := dev.Free(hog); err != nil {
		t.Fatal(err)
	}
	if err := pl.Observe(all[next]); err != nil {
		t.Fatal(err)
	}
	if pl.PendingUpdates() != 0 {
		t.Fatalf("pending = %d after the accepted retry, want 0", pl.PendingUpdates())
	}
	if _, err := pl.Predict(1); err != nil {
		t.Fatal(err)
	}
}

// The forecast trace shows index maintenance where it now happens: an
// index_catchup child of the search span whenever the search had
// observations to fold in (or the window level to build), inside the
// search's own time, and nothing when the index was already in step.
func TestTraceRecordsIndexCatchup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	all := seasonal(rng, 340)
	const warm = 300
	pl := testPipeline(t, func() Predictor { return NewAR() }, EnsembleConfig{}, all[:warm])
	catchup := func() (detail string, found bool) {
		t.Helper()
		tr := obs.NewTrace("s", 1)
		if _, err := pl.PredictTracedCtx(context.Background(), 1, tr); err != nil {
			t.Fatal(err)
		}
		var search, inner float64
		for _, sp := range tr.Spans {
			switch sp.Name {
			case "search":
				search = sp.Duration
			case "index_catchup":
				detail, found = sp.Detail, true
				inner += sp.Duration
			case "lower_bound", "verify":
				inner += sp.Duration
			}
		}
		if inner > search {
			t.Fatalf("catch-up + lower bound + verify = %vs exceeds the search span %vs", inner, search)
		}
		if pt := pl.Timing(); pt.SearchSec < search {
			t.Fatalf("PhaseTiming.SearchSec %v is less than the search span %v", pt.SearchSec, search)
		}
		return detail, found
	}
	if d, ok := catchup(); !ok || d != "steps=0 rebuilt=true" {
		t.Fatalf("first forecast: catch-up span %q (found=%t), want the initial build", d, ok)
	}
	if d, ok := catchup(); ok {
		t.Fatalf("forecast with nothing to catch up recorded a span %q", d)
	}
	for i := 0; i < 5; i++ {
		if err := pl.Observe(all[warm+i]); err != nil {
			t.Fatal(err)
		}
	}
	if d, ok := catchup(); !ok || d != "steps=5 rebuilt=false" {
		t.Fatalf("forecast after 5 observations: catch-up span %q (found=%t)", d, ok)
	}
}

// Reading a forecast again before the next observation neither scores
// it again nor refits it: the second and third reads of a step are
// served the first one's answer from the pending set, so every forecast
// and, after every observation, the ensemble's weights and sleep state
// are bit for bit the same whether each step's forecast was read once,
// twice or three times — for AR cells and for GP cells, whose fits
// warm-start from their previous optimum.
func TestRepeatedReadReweightsOnce(t *testing.T) {
	all := seasonal(rand.New(rand.NewSource(21)), 420)
	for _, tc := range []struct {
		name    string
		factory PredictorFactory
	}{
		{"AR", func() Predictor { return NewAR() }},
		{"GP", func() Predictor { return NewGP() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var wantStates [][]CellState
			var wantPreds []Prediction
			for reads := 1; reads <= 3; reads++ {
				pl := testPipeline(t, tc.factory, EnsembleConfig{}, all[:400])
				for step := 0; step < 10; step++ {
					for r := 0; r < reads; r++ {
						pred, err := pl.Predict(1)
						if err != nil {
							t.Fatal(err)
						}
						if reads == 1 {
							wantPreds = append(wantPreds, pred)
						} else if w := wantPreds[step]; !samePrediction(pred, w) {
							t.Fatalf("%d reads, step %d, read %d: %+v, read once: %+v", reads, step, r, pred, w)
						}
					}
					if err := pl.Observe(all[400+step]); err != nil {
						t.Fatal(err)
					}
					got := pl.Ensemble().ExportState()
					if reads == 1 {
						wantStates = append(wantStates, got)
						continue
					}
					for i, c := range got {
						w := wantStates[step][i]
						if math.Float64bits(c.Weight) != math.Float64bits(w.Weight) || c.Sleeping != w.Sleeping ||
							c.SleepLeft != w.SleepLeft || c.SleepSpan != w.SleepSpan || c.WokeLately != w.WokeLately {
							t.Fatalf("%d reads, step %d, cell %d×%d: %+v, read once: %+v", reads, step, c.K, c.D, c, w)
						}
					}
				}
			}
		})
	}
}

func samePrediction(a, b Prediction) bool {
	return math.Float64bits(a.Mean) == math.Float64bits(b.Mean) &&
		math.Float64bits(a.Variance) == math.Float64bits(b.Variance)
}
