package core

import (
	"context"
	"math/rand"
	"testing"

	"smiler/internal/gpusim"
	"smiler/internal/index"
	"smiler/internal/memsys"
	"smiler/internal/obs"
)

// workerPipeline builds a GP pipeline over hist with an explicit
// Prediction-Step configuration.
func workerPipeline(t *testing.T, hist []float64, workers int) *Pipeline {
	t.Helper()
	dev := gpusim.MustNewDevice(gpusim.DefaultConfig())
	p := index.Params{Rho: 3, Omega: 8, ELV: []int{16, 24, 40}}
	ix, err := index.New(dev, hist, p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	pl, err := NewPipeline(ix, PipelineConfig{
		EKV:            []int{4, 8},
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

// TestParallelMatchesSequentialBitwise is the tentpole's determinism
// contract: the Prediction Step must produce bit-identical posteriors
// and auto-tuning trajectories at any worker count.
func TestParallelMatchesSequentialBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	all := seasonal(rng, 530)
	warm := 500
	seq := workerPipeline(t, all[:warm], 1)
	par := workerPipeline(t, all[:warm], 4)

	for i := warm; i < len(all); i++ {
		a, err := seq.Predict(1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.Predict(1)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("step %d: sequential %+v != parallel %+v", i-warm, a, b)
		}
		if err := seq.Observe(all[i]); err != nil {
			t.Fatal(err)
		}
		if err := par.Observe(all[i]); err != nil {
			t.Fatal(err)
		}
	}
	sa, sb := seq.Ensemble().ExportState(), par.Ensemble().ExportState()
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("cell %d state diverged: %+v vs %+v", i, sa[i], sb[i])
		}
	}
}

// TestPredictMultiParallelDeterministic checks PredictMultiTracedCtx under
// concurrent cell fits: identical outputs, pending updates appended in
// horizon order, and the trace's span sequence (names and details)
// independent of the worker count.
func TestPredictMultiParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	all := seasonal(rng, 520)
	warm := 500
	seq := workerPipeline(t, all[:warm], 1)
	par := workerPipeline(t, all[:warm], 4)
	hs := []int{1, 3, 6}

	for step := 0; step < 6; step++ {
		trSeq := obs.NewTrace("seq", hs...)
		trPar := obs.NewTrace("par", hs...)
		a, err := seq.PredictMultiTracedCtx(context.Background(), hs, trSeq)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.PredictMultiTracedCtx(context.Background(), hs, trPar)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hs {
			if a[h] != b[h] {
				t.Fatalf("step %d h=%d: %+v vs %+v", step, h, a[h], b[h])
			}
		}
		if seq.PendingUpdates() != par.PendingUpdates() {
			t.Fatalf("step %d: pending %d vs %d", step, seq.PendingUpdates(), par.PendingUpdates())
		}
		if len(trSeq.Spans) != len(trPar.Spans) {
			t.Fatalf("step %d: span counts %d vs %d", step, len(trSeq.Spans), len(trPar.Spans))
		}
		for i := range trSeq.Spans {
			if trSeq.Spans[i].Name != trPar.Spans[i].Name || trSeq.Spans[i].Detail != trPar.Spans[i].Detail {
				t.Fatalf("step %d span %d: (%s, %s) vs (%s, %s)", step, i,
					trSeq.Spans[i].Name, trSeq.Spans[i].Detail,
					trPar.Spans[i].Name, trPar.Spans[i].Detail)
			}
		}
		truth := all[warm] // same value fed to both
		if err := seq.Observe(truth); err != nil {
			t.Fatal(err)
		}
		if err := par.Observe(truth); err != nil {
			t.Fatal(err)
		}
	}
	sa, sb := seq.Ensemble().ExportState(), par.Ensemble().ExportState()
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("cell %d state diverged: %+v vs %+v", i, sa[i], sb[i])
		}
	}
}

// TestPooledMatchesUnpooledBitwise extends the determinism contract to
// the slab allocator: with memsys pooling on, every posterior and the
// full auto-tuning trajectory must be bit-identical to a run with
// pooling off (plain make), at any worker count. Pooled Gets return
// zeroed slabs, so this holds by construction — the test keeps it held.
func TestPooledMatchesUnpooledBitwise(t *testing.T) {
	was := memsys.Enabled()
	defer memsys.SetEnabled(was)

	rng := rand.New(rand.NewSource(23))
	all := seasonal(rng, 520)
	warm := 500

	run := func(pooled bool, workers int) ([]Prediction, []interface{}) {
		memsys.SetEnabled(pooled)
		pl := workerPipeline(t, all[:warm], workers)
		var out []Prediction
		for i := warm; i < len(all); i++ {
			f, err := pl.Predict(1)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, f)
			if err := pl.Observe(all[i]); err != nil {
				t.Fatal(err)
			}
		}
		st := pl.Ensemble().ExportState()
		anyState := make([]interface{}, len(st))
		for i := range st {
			anyState[i] = st[i]
		}
		return out, anyState
	}

	refF, refS := run(false, 1)
	for _, workers := range []int{1, 4} {
		gotF, gotS := run(true, workers)
		for i := range refF {
			if gotF[i] != refF[i] {
				t.Fatalf("workers=%d step %d: pooled %+v != unpooled %+v", workers, i, gotF[i], refF[i])
			}
		}
		for i := range refS {
			if gotS[i] != refS[i] {
				t.Fatalf("workers=%d cell %d: pooled state %+v != unpooled %+v", workers, i, gotS[i], refS[i])
			}
		}
	}
}
