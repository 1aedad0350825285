package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"smiler/internal/gpusim"
	"smiler/internal/index"
)

// perf_bench_test.go holds the machine-readable perf trajectory of the
// Prediction and Observe hot paths (make bench-json → BENCH_predict.json).
// Unlike the paper-shape benches in the repo root, these run the
// pipeline directly at the paper's default 3×3 ensemble so the
// Prediction Step (CellFitSec-dominated) is measured without serving-
// layer noise.

// benchHistory synthesizes the same seasonal regime the pipeline tests
// use, long enough for the default ELV={32,64,96} master query.
func benchHistory(n int) []float64 {
	rng := rand.New(rand.NewSource(42))
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Sin(2*math.Pi*float64(i)/48) +
			0.4*math.Sin(2*math.Pi*float64(i)/12) +
			rng.NormFloat64()*0.05
	}
	return out
}

// newBenchPipeline builds the paper-default 3×3 GP pipeline over a
// fresh simulated device.
func newBenchPipeline(b *testing.B, workers int, factory PredictorFactory) *Pipeline {
	b.Helper()
	dev := gpusim.MustNewDevice(gpusim.DefaultConfig())
	p := index.DefaultParams()
	ix, err := index.New(dev, benchHistory(800), p)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ix.Close() })
	cfg := DefaultPipelineConfig()
	cfg.Index = p
	cfg.PredictWorkers = workers
	if factory != nil {
		cfg.Factory = factory
	}
	pl, err := NewPipeline(ix, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return pl
}

// runPredictBench drives one Predict per iteration and reports the
// Prediction Step split as custom metrics alongside ns/op.
func runPredictBench(b *testing.B, pl *Pipeline) {
	if _, err := pl.Predict(1); err != nil { // prime prevNN + warm starts
		b.Fatal(err)
	}
	pl.pending = pl.pending[:0]
	b.ReportAllocs()
	b.ResetTimer()
	var predictSec, cellFitSec, searchSec float64
	for i := 0; i < b.N; i++ {
		if _, err := pl.Predict(1); err != nil {
			b.Fatal(err)
		}
		t := pl.Timing()
		predictSec += t.PredictSec
		cellFitSec += t.CellFitSec
		searchSec += t.SearchSec
		pl.pending = pl.pending[:0] // no Observe: don't let maturity queue grow
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(predictSec/n*1e9, "predict-step-ns/op")
	b.ReportMetric(cellFitSec/n*1e9, "cell-fit-ns/op")
	b.ReportMetric(searchSec/n*1e9, "search-ns/op")
}

// BenchmarkPredict measures one full Predict (Search Step + Prediction
// Step) at the paper's default 3×3 GP ensemble. The predict-step-ns/op
// metric isolates the Prediction Step — the CellFitSec-dominated path
// the shared-computation work targets.
func BenchmarkPredict(b *testing.B) {
	runPredictBench(b, newBenchPipeline(b, 0, nil))
}

// BenchmarkPredictSequential pins the Prediction Step to one worker —
// the reference the parallel path must match numerically, and the
// apples-to-apples view of the pure algorithmic sharing.
func BenchmarkPredictSequential(b *testing.B) {
	runPredictBench(b, newBenchPipeline(b, 1, nil))
}

// BenchmarkPredictMulti measures PredictMulti over a 3-horizon ladder
// (one shared Search Step, one Prediction Step per horizon).
func BenchmarkPredictMulti(b *testing.B) {
	pl := newBenchPipeline(b, 0, nil)
	hs := []int{1, 3, 6}
	if _, err := pl.PredictMulti(hs); err != nil {
		b.Fatal(err)
	}
	pl.pending = pl.pending[:0]
	b.ReportAllocs()
	b.ResetTimer()
	var predictSec float64
	for i := 0; i < b.N; i++ {
		if _, err := pl.PredictMulti(hs); err != nil {
			b.Fatal(err)
		}
		predictSec += pl.Timing().PredictSec
		pl.pending = pl.pending[:0]
	}
	b.StopTimer()
	b.ReportMetric(predictSec/float64(b.N)*1e9, "predict-step-ns/op")
}

// observeRebuildEvery bounds how far the Observe benches let a history
// grow: a search costs O(history) and every iteration appends, so the
// pipeline is replaced (timer stopped) every observeRebuildEvery
// iterations, the history stays within 800..800+observeRebuildEvery
// points and ns/op does not depend on b.N.
const observeRebuildEvery = 512

// freshObservePipeline replaces old (nil on the first call) with a new
// AR pipeline whose window level is built and whose threshold seeds are
// primed, and returns it with one forecast's cell predictions to feed
// the reweight queue from.
func freshObservePipeline(b *testing.B, old *Pipeline) (*Pipeline, []CellPrediction) {
	b.Helper()
	if old != nil {
		old.ix.Close()
	}
	pl := newBenchPipeline(b, 0, func() Predictor { return NewAR() })
	if _, err := pl.Predict(1); err != nil {
		b.Fatal(err)
	}
	preds := pl.pending[0].preds
	pl.pending = pl.pending[:0]
	return pl, preds
}

// BenchmarkObserve measures the Observe path — the append to the
// index's history plus the self-adaptive reweight of one matured
// prediction — with the reweight queue refilled outside the pipeline
// each iteration (white-box) so every Observe pays the full auto-tuning
// cost. No search follows, so no index maintenance is in this number;
// BenchmarkObserveThenSearch is where it shows.
func BenchmarkObserve(b *testing.B) {
	vals := benchHistory(256)
	var pl *Pipeline
	var preds []CellPrediction
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%observeRebuildEvery == 0 {
			b.StopTimer()
			pl, preds = freshObservePipeline(b, pl)
			b.StartTimer()
		}
		pl.pending = append(pl.pending, pendingUpdate{target: pl.ix.Len(), preds: preds})
		if err := pl.Observe(vals[i%len(vals)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObserveThenSearch measures an observation with its share of
// index maintenance: every gap-th Observe is followed by one Search
// Step, which catches the window level up over the gap in one batch
// (gap=512 exceeds the ring, so that search rebuilds it). One iteration
// is one observation, so ns/op is the cost per observation of a sensor
// that is forecast once every gap steps.
func BenchmarkObserveThenSearch(b *testing.B) {
	for _, gap := range []int{1, 4, 64, 512} {
		b.Run(fmt.Sprintf("gap=%d", gap), func(b *testing.B) {
			vals := benchHistory(256)
			var pl *Pipeline
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%observeRebuildEvery == 0 {
					b.StopTimer()
					pl, _ = freshObservePipeline(b, pl)
					b.StartTimer()
				}
				if err := pl.Observe(vals[i%len(vals)]); err != nil {
					b.Fatal(err)
				}
				if (i+1)%gap == 0 {
					if _, err := pl.ix.Search(pl.ens.MaxK(), 1); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
