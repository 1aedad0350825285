// bench_test.go holds one testing.B benchmark per table and figure of
// the paper's evaluation, plus ablation benches for the design choices
// called out in DESIGN.md §6. Each benchmark executes the harness
// runner behind the corresponding experiment at a reduced scale and
// reports the experiment's headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates a miniature of the full evaluation. The smiler-bench CLI
// runs the same harness at larger scales.
package smiler_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"smiler"
	"smiler/internal/baselines"
	"smiler/internal/bench"
	"smiler/internal/core"
	"smiler/internal/datasets"
	"smiler/internal/dtw"
	"smiler/internal/gp"
	"smiler/internal/gpusim"
	"smiler/internal/index"
)

// benchSpec is the miniature ROAD corpus shared by the benches.
func benchSpec() bench.DatasetSpec {
	return bench.DatasetSpec{
		Name: "ROAD",
		Gen:  datasets.Config{Kind: datasets.Road, Sensors: 2, Days: 6, Seed: 3},
		Warm: 760, TestSteps: 6,
	}
}

func benchCorpus(b *testing.B) *bench.Corpus {
	b.Helper()
	c, err := bench.Load(benchSpec())
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkTable3LowerBounds regenerates Table 3: filtering power and
// verification cost of LBEQ / LBEC / LBen.
func BenchmarkTable3LowerBounds(b *testing.B) {
	c := benchCorpus(b)
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable3(c, 3)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Bound == index.LBModeEn {
				b.ReportMetric(r.Unfiltered, "unfiltered/query")
			}
		}
	}
}

// BenchmarkFig7SuffixKNN regenerates Fig. 7: Suffix kNN Search time
// per method (one sub-benchmark per method, k=32).
func BenchmarkFig7SuffixKNN(b *testing.B) {
	c := benchCorpus(b)
	for _, m := range []bench.SearchMethod{
		bench.MethodSMiLerIdx, bench.MethodSMiLerDir,
		bench.MethodFastGPUScan, bench.MethodGPUScan, bench.MethodFastCPUScan,
	} {
		b.Run(string(m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := bench.RunFig7(c, []int{32}, 3, []bench.SearchMethod{m})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rows[0].SimSec, "gpusim-s/step")
			}
		})
	}
}

// BenchmarkFig8LowerBoundIndex regenerates Fig. 8: LBen production
// with vs without the window-level index.
func BenchmarkFig8LowerBoundIndex(b *testing.B) {
	c := benchCorpus(b)
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunFig8(c, 3)
		if err != nil {
			b.Fatal(err)
		}
		var idx, dir float64
		for _, r := range rows {
			if r.Method == bench.MethodSMiLerIdx {
				idx = r.SimSec
			} else {
				dir = r.SimSec
			}
		}
		if idx > 0 {
			b.ReportMetric(dir/idx, "speedup-x")
		}
	}
}

// BenchmarkFig9OfflineAccuracy regenerates Fig. 9: SMiLer vs the
// offline (eager) competitors. The GP ensemble dominates the runtime,
// so the corpus is tiny; the CLI runs the full matrix.
func BenchmarkFig9OfflineAccuracy(b *testing.B) {
	c := benchCorpus(b)
	methods := []string{bench.MSMiLerAR, bench.MPSGP, bench.MVLGP, bench.MNysSVR, bench.MSgdSVR, bench.MSgdRR}
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.RunAccuracy(c, methods, []int{1, 5})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Method == bench.MSMiLerAR && r.H == 1 {
				b.ReportMetric(r.MAE, "smiler-mae")
			}
		}
	}
}

// BenchmarkFig10OnlineAccuracy regenerates Fig. 10: SMiLer vs the
// online competitors.
func BenchmarkFig10OnlineAccuracy(b *testing.B) {
	c := benchCorpus(b)
	methods := []string{bench.MSMiLerAR, bench.MLazyKNN, bench.MSegHW, bench.MOnlineSVR, bench.MOnlineRR}
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.RunAccuracy(c, methods, []int{1, 5})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Method == bench.MLazyKNN && r.H == 1 {
				b.ReportMetric(r.MNLPD, "lazyknn-mnlpd")
			}
		}
	}
}

// BenchmarkFig11AutoTuning regenerates Fig. 11: the full adaptive
// ensemble vs the NE (no ensemble) and NS (no self-adaptation)
// ablations, AR flavour for speed.
func BenchmarkFig11AutoTuning(b *testing.B) {
	c := benchCorpus(b)
	methods := []string{bench.MSMiLerAR, bench.MSMiLerNEAR, bench.MSMiLerNSAR}
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.RunAccuracy(c, methods, []int{1})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Method == bench.MSMiLerAR {
				b.ReportMetric(r.MAE, "full-ensemble-mae")
			}
		}
	}
}

// BenchmarkTable4RunningTime regenerates Table 4: per-method training
// and prediction times.
func BenchmarkTable4RunningTime(b *testing.B) {
	c := benchCorpus(b)
	methods := []string{bench.MSMiLerAR, bench.MLazyKNN, bench.MPSGP, bench.MSgdSVR, bench.MOnlineRR}
	for i := 0; i < b.N; i++ {
		_, timings, err := bench.RunAccuracy(c, methods, []int{1})
		if err != nil {
			b.Fatal(err)
		}
		for _, tr := range timings {
			if tr.Method == bench.MSMiLerAR {
				b.ReportMetric(tr.PredictMs, "smiler-predict-ms")
			}
		}
	}
}

// BenchmarkFig12Scalability regenerates Fig. 12: the per-step
// search/prediction split and the sensors-per-GPU capacity.
func BenchmarkFig12Scalability(b *testing.B) {
	c := benchCorpus(b)
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunFig12Time(c, 2)
		if err != nil {
			b.Fatal(err)
		}
		_, maxSensors, err := bench.Fig12Capacity(c, gpusim.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(maxSensors), "max-sensors")
		_ = rows
	}
}

// BenchmarkFig13PSGPSweep regenerates Fig. 13: the PSGP active-point
// accuracy/time trade-off against the SMiLer-GP reference.
func BenchmarkFig13PSGPSweep(b *testing.B) {
	c := benchCorpus(b)
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunFig13(c, []int{4, 16, 64})
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.TrainSecPer, "psgp-train-s")
		b.ReportMetric(last.SMiLerGPMae, "smiler-gp-mae")
	}
}

// --- Ablation benches (DESIGN.md §6) ---

// BenchmarkAblationContinuousReuse: incremental window-level update
// (Remark 1) vs rebuilding the index every step.
func BenchmarkAblationContinuousReuse(b *testing.B) {
	c := benchCorpus(b)
	for i := 0; i < b.N; i++ {
		reuse, rebuild, err := bench.AblationContinuousReuse(c, 5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rebuild.Sec/reuse.Sec, "speedup-x")
		b.ReportMetric(rebuild.Cycles/reuse.Cycles, "sim-speedup-x")
	}
}

// BenchmarkAblationCompressedDTW: the 2×(2ρ+2) compressed warping
// matrix of Algorithm 2 vs the full-matrix reference.
func BenchmarkAblationCompressedDTW(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	q := make([]float64, 96)
	cseg := make([]float64, 96)
	for i := range q {
		q[i] = rng.NormFloat64()
		cseg[i] = rng.NormFloat64()
	}
	b.Run("full-matrix", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dtw.Distance(q, cseg, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compressed", func(b *testing.B) {
		scratch := dtw.NewCompressedScratch(8)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dtw.DistanceCompressed(q, cseg, 8, scratch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationWarmStart: the paper's 5-step warm-started online
// GP training vs full cold optimization per query.
func BenchmarkAblationWarmStart(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	const k, d = 32, 64
	x := make([][]float64, k)
	y := make([]float64, k)
	for i := range x {
		xi := make([]float64, d)
		for j := range xi {
			xi[j] = rng.NormFloat64()
		}
		x[i] = xi
		y[i] = xi[d-1] + 0.1*rng.NormFloat64()
	}
	init := gp.HeuristicHyper(x, y)
	warm, err := gp.Optimize(x, y, init, 20)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold-20-iter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gp.Optimize(x, y, init, 20); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-5-iter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gp.Optimize(x, y, warm.Hyper, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSleepRecovery: ensemble update cost with and
// without the sleep scheduler (sleeping cells skip prediction
// entirely; this measures the bookkeeping side).
func BenchmarkAblationSleepRecovery(b *testing.B) {
	run := func(b *testing.B, disable bool) {
		ens, err := core.NewEnsemble([]int{8, 16, 32}, []int{32, 64, 96},
			func() core.Predictor { return core.NewAR() },
			core.EnsembleConfig{DisableSleep: disable})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < b.N; i++ {
			var preds []core.CellPrediction
			for ci, c := range ens.Cells() {
				if c.Sleeping() {
					continue
				}
				mean := 0.0
				if ci%3 == 0 {
					mean = 5 // persistently poor third of the matrix
				}
				preds = append(preds, core.CellPrediction{
					Cell: c,
					Pred: core.Prediction{Mean: mean + rng.NormFloat64()*0.01, Variance: 0.1},
				})
			}
			ens.Update(preds, 0)
		}
		awake := 0
		for _, c := range ens.Cells() {
			if !c.Sleeping() {
				awake++
			}
		}
		b.ReportMetric(float64(awake), "awake-cells")
	}
	b.Run("sleep-on", func(b *testing.B) { run(b, false) })
	b.Run("sleep-off", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationDistanceMeasure: kNN prediction accuracy under DTW
// vs the alternative similarity measures (the paper's §4 motivation).
func BenchmarkAblationDistanceMeasure(b *testing.B) {
	c := benchCorpus(b)
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunDistanceMeasureAblation(c, 3, 8, 32, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Measure == "DTW" {
				b.ReportMetric(r.MAE, "dtw-mae")
			}
		}
	}
}

// BenchmarkAblationDownsample: the §6.4.1 space/accuracy trade-off —
// index a fraction of the history, fit more sensors per GPU.
func BenchmarkAblationDownsample(b *testing.B) {
	c := benchCorpus(b)
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunDownsampleTradeoff(c, []float64{1.0, 0.25}, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[1].MaxSensors)/float64(rows[0].MaxSensors), "capacity-x")
	}
}

// BenchmarkAblationThresholdReuse: the first Suffix kNN query (k-th
// smallest lower-bound threshold) vs continuous queries (threshold
// from the previous step's kNN set).
func BenchmarkAblationThresholdReuse(b *testing.B) {
	c := benchCorpus(b)
	p := index.DefaultParams()
	z := c.Series[0]
	dev := gpusim.MustNewDevice(gpusim.DefaultConfig())
	b.Run("first-query", func(b *testing.B) {
		var unfiltered float64
		for i := 0; i < b.N; i++ {
			ixFresh, err := index.New(dev, z[:c.Spec.Warm], p)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ixFresh.Search(32, 1); err != nil {
				b.Fatal(err)
			}
			unfiltered += float64(ixFresh.Stats().Unfiltered)
			ixFresh.Close()
		}
		b.ReportMetric(unfiltered/float64(b.N), "unfiltered")
	})
	b.Run("continuous", func(b *testing.B) {
		ix, err := index.New(dev, z[:c.Spec.Warm], p)
		if err != nil {
			b.Fatal(err)
		}
		defer ix.Close()
		if _, err := ix.Search(32, 1); err != nil { // prime prevNN
			b.Fatal(err)
		}
		var unfiltered float64
		for i := 0; i < b.N; i++ {
			if err := ix.Advance(z[c.Spec.Warm+(i%c.Spec.TestSteps)]); err != nil {
				b.Fatal(err)
			}
			if _, err := ix.Search(32, 1); err != nil {
				b.Fatal(err)
			}
			unfiltered += float64(ix.Stats().Unfiltered)
		}
		b.ReportMetric(unfiltered/float64(b.N), "unfiltered")
	})
}

// BenchmarkAblationTrainingObjective: the paper's LOO objective vs the
// textbook marginal likelihood for the query-dependent GP's online
// training (Sundararajan–Keerthi's comparison in the semi-lazy
// setting).
func BenchmarkAblationTrainingObjective(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	const k, d = 32, 64
	x := make([][]float64, k)
	y := make([]float64, k)
	for i := range x {
		xi := make([]float64, d)
		for j := range xi {
			xi[j] = rng.NormFloat64()
		}
		x[i] = xi
		y[i] = xi[d-1] + 0.1*rng.NormFloat64()
	}
	init := gp.HeuristicHyper(x, y)
	b.Run("LOO", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gp.Optimize(x, y, init, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("marginal-likelihood", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gp.OptimizeML(x, y, init, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationBootstrapUncertainty: the paper's §2.1 point — a
// lazy learner can buy uncertainty with bootstrap resampling, but at a
// time cost the semi-lazy GP's closed form avoids. Compares LazyKNN
// (no uncertainty machinery), LazyKNN+bootstrap, and the exact GP fit
// on the same neighbourhood size.
func BenchmarkAblationBootstrapUncertainty(b *testing.B) {
	c := benchCorpus(b)
	hist := c.Series[0][:c.Spec.Warm]
	b.Run("LazyKNN-plain", func(b *testing.B) {
		l := baselines.LazyKNN{K: 32, D: 64, Rho: 8}
		for i := 0; i < b.N; i++ {
			if _, err := l.Predict(hist, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("LazyKNN-bootstrap", func(b *testing.B) {
		l := baselines.LazyKNNBootstrap{K: 32, D: 64, Rho: 8, B: 100, Seed: 1}
		for i := 0; i < b.N; i++ {
			if _, err := l.Predict(hist, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("semi-lazy-GP", func(b *testing.B) {
		gpp := core.NewGP()
		x, y, err := baselines.SegmentDataset(hist, 64, 1, 32)
		if err != nil {
			b.Fatal(err)
		}
		probe := hist[len(hist)-64:]
		for i := 0; i < b.N; i++ {
			if _, err := gpp.Predict(probe, x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkContinuousGPLoop is the repository benchmark's continuous_gp
// traffic shape without the transport: 8 sensors × 2,048 ROAD points,
// default GP configuration; one iteration is one observation followed by
// one forecast on the next sensor in turn, each sensor's horizons walking
// 1,1,3,3,6,6. It is the loop docs/PERF.md profiles ("Verify kernel"):
//
//	go test -run '^$' -bench ContinuousGPLoop -benchtime 300x -cpuprofile cpu.out .
//
// Beside the timings it reports the work per iteration — candidates the
// DTW kernel ran on, band columns it processed and GP objective values
// the hyperparameter optimizer computed — which repeats exactly at a
// fixed -benchtime Nx, and the heap a sensor holds once registered and
// forecast (see continuousGPLoop).
func BenchmarkContinuousGPLoop(b *testing.B) { continuousGPLoop(b, 8, 2048) }

// BenchmarkContinuousGPLoopLong is the same loop at the paper's history
// length: 2 sensors × 65,536 ROAD points, where the index search, not
// the GP fit, is the forecast. scripts/bench_json.sh runs it at a fixed
// -benchtime 100x (about 5 s) and gates its three work counts exactly.
func BenchmarkContinuousGPLoopLong(b *testing.B) { continuousGPLoop(b, 2, 65536) }

// continuousGPLoop runs the continuous_gp loop over sensors ROAD sensors
// (seed 11) of history points each. heap_B/sensor is the live heap that
// registering the sensors and their first forecasts added, after a GC
// on both sides, per sensor: what a deployment pays to hold one.
func continuousGPLoop(b *testing.B, sensors, history int) {
	horizons := [...]int{1, 1, 3, 3, 6, 6}
	sys, err := smiler.New(smiler.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	ids := make([]string, sensors)
	streams := make([]*datasets.Stream, sensors)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%d", i)
		if streams[i], err = datasets.NewStream(datasets.Road, 11, i); err != nil {
			b.Fatal(err)
		}
	}
	heapBefore := liveHeap()
	for i := range ids {
		if err := sys.AddSensor(ids[i], streams[i].Take(history)); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Predict(ids[i], 1); err != nil { // build the index, warm the hyperparameters
			b.Fatal(err)
		}
	}
	heapPerSensor := float64(liveHeap()-heapBefore) / float64(sensors)
	runs := sys.Metrics().Counter("smiler_knn_unfiltered_total", "")
	cols := sys.Metrics().Counter("smiler_dtw_columns_total", "")
	runs0, cols0, evals0 := runs.Value(), cols.Value(), gp.SnapshotStats().OptimizeEvals
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		i := n % sensors
		if err := sys.Observe(ids[i], streams[i].Next()); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Predict(ids[i], horizons[n/sensors%len(horizons)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runs.Value()-runs0)/float64(b.N), "dtw_runs/op")
	b.ReportMetric(float64(cols.Value()-cols0)/float64(b.N), "dtw_cols/op")
	b.ReportMetric(float64(gp.SnapshotStats().OptimizeEvals-evals0)/float64(b.N), "gp_evals/op")
	b.ReportMetric(heapPerSensor, "heap_B/sensor")
}

// liveHeap returns the bytes of live heap objects. Two GCs empty the
// sync.Pool victim caches, so a later reading does not count their
// release as the caller's saving.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// BenchmarkTierEvictFault prices one tier round trip: two 256-point GP
// sensors (the tiered_zipf shape, hyperparameters warmed by a forecast
// each) under MaxHotSensors 1, so every op faults the cold sensor in
// from its spill file and evicts the other one to its own. allocs/op is
// a count that repeats at a fixed -benchtime Nx, and scripts/bench_json.sh
// gates it exactly.
func BenchmarkTierEvictFault(b *testing.B) {
	cfg := smiler.DefaultConfig()
	cfg.MaxHotSensors = 1
	sys, err := smiler.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	ids := []string{"s0", "s1"}
	for i, id := range ids {
		st, err := datasets.NewStream(datasets.Road, 11, i)
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.AddSensor(id, st.Take(256)); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Predict(id, 1); err != nil {
			b.Fatal(err)
		}
	}
	before := sys.Tiering()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		// s1 is hot after setup, so op n touches the cold s0, s1, s0, ...
		if _, err := sys.HistoryLen(ids[n%2]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := sys.Tiering()
	if f, e := after.Faults-before.Faults, after.Evictions-before.Evictions; f != uint64(b.N) || e != uint64(b.N) {
		b.Fatalf("%d ops paid %d faults and %d evictions, want one of each per op", b.N, f, e)
	}
}

// BenchmarkTierColdObserve prices one observation of a cold sensor:
// the BenchmarkTierEvictFault setup (two warmed 256-point GP sensors
// under MaxHotSensors 1), then an observe of s0 that spills s1, so
// both are cold and s0 alone is on the LRU list. Op n observes the
// sensor op n-1 did not: one tail append, and the other sensor leaves
// the list without a spill. No op faults or evicts. allocs/op is a
// count that repeats at a fixed -benchtime Nx, and
// scripts/bench_json.sh gates it exactly.
func BenchmarkTierColdObserve(b *testing.B) {
	cfg := smiler.DefaultConfig()
	cfg.MaxHotSensors = 1
	sys, err := smiler.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	ids := []string{"s0", "s1"}
	streams := make([]*datasets.Stream, len(ids))
	for i, id := range ids {
		if streams[i], err = datasets.NewStream(datasets.Road, 11, i); err != nil {
			b.Fatal(err)
		}
		if err := sys.AddSensor(id, streams[i].Take(256)); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Predict(id, 1); err != nil {
			b.Fatal(err)
		}
	}
	if err := sys.Observe("s0", streams[0].Next()); err != nil {
		b.Fatal(err)
	}
	before := sys.Tiering()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		i := (n + 1) % 2
		if err := sys.Observe(ids[i], streams[i].Next()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := sys.Tiering()
	if f, e, a := after.Faults-before.Faults, after.Evictions-before.Evictions, after.TailAppends-before.TailAppends; f != 0 || e != 0 || a != uint64(b.N) || after.Hot != 0 {
		b.Fatalf("%d ops paid %d faults, %d evictions and %d tail appends (%d hot), want only one append per op",
			b.N, f, e, a, after.Hot)
	}
}

// BenchmarkSensorMigrateRoundTrip prices one migration/resync hop of
// a sensor's state: SaveSensorTo on the owner, RestoreSensorsFrom on
// the target, for a 256-point GP sensor whose hyperparameters a
// forecast warmed. The target already holds the sensor after the first
// op, so every op also pays the replace. allocs/op is a count that
// repeats at a fixed -benchtime Nx, and scripts/bench_json.sh gates it
// exactly.
func BenchmarkSensorMigrateRoundTrip(b *testing.B) {
	src, err := smiler.New(smiler.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	dst, err := smiler.New(smiler.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer dst.Close()
	st, err := datasets.NewStream(datasets.Road, 11, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := src.AddSensor("s0", st.Take(256)); err != nil {
		b.Fatal(err)
	}
	if _, err := src.Predict("s0", 1); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		buf.Reset()
		if err := src.SaveSensorTo(&buf, "s0"); err != nil {
			b.Fatal(err)
		}
		if _, err := dst.RestoreSensorsFrom(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
