package core

import (
	"math"
	"math/rand"
	"testing"

	"smiler/internal/gpusim"
	"smiler/internal/index"
)

// seedPipeline builds a GP pipeline with the paper's EKV {8, 16, 32}
// over three ELV columns.
func seedPipeline(t *testing.T, hist []float64, workers int) *Pipeline {
	t.Helper()
	dev := gpusim.MustNewDevice(gpusim.DefaultConfig())
	p := index.Params{Rho: 3, Omega: 8, ELV: []int{16, 24, 40}}
	ix, err := index.New(dev, hist, p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	pl, err := NewPipeline(ix, PipelineConfig{
		EKV:            []int{8, 16, 32},
		Index:          p,
		Horizon:        1,
		Factory:        func() Predictor { return NewGP() },
		PredictWorkers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// startsSince returns how many GP optimizations started each way since
// before.
func startsSince(before map[string]uint64) map[string]uint64 {
	d := GPOptimizations()
	for k, v := range before {
		d[k] -= v
	}
	return d
}

// TestFirstTouchFitsOneColdCellPerColumn: a sensor's first Prediction
// Step runs one cold optimization per column — on its median-k cell —
// and seeds every other cell of the column with that fit; the next Step
// is warm throughout. A column left with a single cold cell fits it cold
// and seeds nothing.
func TestFirstTouchFitsOneColdCellPerColumn(t *testing.T) {
	hist := seasonal(rand.New(rand.NewSource(31)), 500)
	pl := seedPipeline(t, hist, 1)
	cells := pl.Ensemble().Cells()

	before := GPOptimizations()
	if _, err := pl.Predict(1); err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{"cold": 3, "seeded": 6, "warm": 0, "fallback": 0}
	if got := startsSince(before); !equalStarts(got, want) {
		t.Fatalf("first touch started %v, want %v", got, want)
	}
	for _, c := range cells {
		if g := c.Pred.(*GPPredictor); g.cold() || g.seeded {
			t.Fatalf("cell k=%d d=%d left cold=%t seeded=%t", c.K, c.D, g.cold(), g.seeded)
		}
	}

	// A second Step (another horizon: h=1 is now served from the
	// step's pending answer) is warm throughout.
	before = GPOptimizations()
	if _, err := pl.Predict(2); err != nil {
		t.Fatal(err)
	}
	want = map[string]uint64{"cold": 0, "seeded": 0, "warm": 9, "fallback": 0}
	if got := startsSince(before); !equalStarts(got, want) {
		t.Fatalf("second Step started %v, want %v", got, want)
	}

	// The pivot is the median-k cell: it ends where a lone cold fit on
	// its own prefix ends, whatever the rest of its column does.
	lone := seedPipeline(t, hist, 1)
	for _, c := range lone.Ensemble().Cells() {
		if c.K != 16 {
			c.Pred.(*GPPredictor).SetHyper(cells[0].Pred.(*GPPredictor).Hyper())
		}
	}
	first := seedPipeline(t, hist, 1)
	before = GPOptimizations()
	if _, err := lone.Predict(1); err != nil {
		t.Fatal(err)
	}
	want = map[string]uint64{"cold": 3, "seeded": 0, "warm": 6, "fallback": 0}
	if got := startsSince(before); !equalStarts(got, want) {
		t.Fatalf("one cold cell per column started %v, want %v", got, want)
	}
	if _, err := first.Predict(1); err != nil {
		t.Fatal(err)
	}
	for i, c := range first.Ensemble().Cells() {
		if c.K != 16 {
			continue
		}
		if got, want := c.Pred.(*GPPredictor).Hyper(), lone.Ensemble().Cells()[i].Pred.(*GPPredictor).Hyper(); got != want {
			t.Fatalf("pivot d=%d fit %+v, lone cold fit %+v", c.D, got, want)
		}
	}
}

func equalStarts(got, want map[string]uint64) bool {
	for k, v := range want {
		if got[k] != v {
			return false
		}
	}
	return true
}

// TestColumnSeedingWorkerInvariant: seeding happens inside a column, the
// unit the Prediction Step parallelizes over, so first-touch and later
// forecasts are bit-identical on one worker and on GOMAXPROCS workers.
func TestColumnSeedingWorkerInvariant(t *testing.T) {
	all := seasonal(rand.New(rand.NewSource(32)), 520)
	const warm = 500
	seq := seedPipeline(t, all[:warm], 1)
	par := seedPipeline(t, all[:warm], 0)
	for i := warm; i < len(all); i++ {
		for _, h := range []int{1, 3} {
			a, err := seq.Predict(h)
			if err != nil {
				t.Fatal(err)
			}
			b, err := par.Predict(h)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(a.Mean) != math.Float64bits(b.Mean) ||
				math.Float64bits(a.Variance) != math.Float64bits(b.Variance) {
				t.Fatalf("step %d h=%d: one worker %+v, GOMAXPROCS workers %+v", i-warm, h, a, b)
			}
		}
		if err := seq.Observe(all[i]); err != nil {
			t.Fatal(err)
		}
		if err := par.Observe(all[i]); err != nil {
			t.Fatal(err)
		}
	}
}
