package smiler

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

// countdownCtx is a deterministic deadline: its Err flips to
// DeadlineExceeded after n calls, so tests stage "the deadline fired
// after exactly this much search work" without wall-clock flakiness.
// It reports a Deadline, so the verifier stages rounds for it as for
// any real deadline.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdown(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

func (c *countdownCtx) Done() <-chan struct{} { return nil }

func (c *countdownCtx) Deadline() (time.Time, bool) {
	return time.Now().Add(time.Hour), true
}

// noisySeries is noisySeasonal with the noise turned up: still
// forecastable (the seasonal analogs exist), but the lower bounds are
// loose enough that the filter step keeps many candidates and staged
// verification actually runs in rounds.
func noisySeries(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 10*(math.Sin(2*math.Pi*float64(i)/48)+
			0.3*math.Sin(2*math.Pi*float64(i)/12)) + rng.NormFloat64()*3
	}
	return out
}

// TestAnytimeABBitIdentical is the verifier's safety claim at the
// public API: the round schedule never shows. A system whose
// predictions carry no deadline (one verification round) and one whose
// predictions all run under a far-future PredictDeadline (staged
// geometric rounds) forecast bit-identically, and both tag every
// forecast exact/1.
func TestAnytimeABBitIdentical(t *testing.T) {
	exact, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer exact.Close()
	anyCfg := smallConfig()
	anyCfg.PredictDeadline = time.Hour
	anySys, err := New(anyCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer anySys.Close()

	rng := rand.New(rand.NewSource(11))
	streams := map[string][]float64{
		"a": noisySeries(rng, 460),
		"b": noisySeasonal(rng, 460, 5, 50),
	}
	for id, all := range streams {
		if err := exact.AddSensor(id, all[:400]); err != nil {
			t.Fatal(err)
		}
		if err := anySys.AddSensor(id, all[:400]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 400; i < 430; i++ {
		for id, all := range streams {
			fe, err := exact.Predict(id, 1)
			if err != nil {
				t.Fatal(err)
			}
			fa, err := anySys.Predict(id, 1)
			if err != nil {
				t.Fatal(err)
			}
			if fa.Mean != fe.Mean || fa.Variance != fe.Variance {
				t.Fatalf("step %d sensor %s: staged %v/%v vs one round %v/%v",
					i, id, fa.Mean, fa.Variance, fe.Mean, fe.Variance)
			}
			for _, f := range []Forecast{fe, fa} {
				if f.Quality != "exact" || f.QualityEstimate != 1 {
					t.Fatalf("uninterrupted forecast tagged %q/%v, want exact/1", f.Quality, f.QualityEstimate)
				}
			}
			he, err := exact.PredictHorizons(id, []int{1, 3})
			if err != nil {
				t.Fatal(err)
			}
			ha, err := anySys.PredictHorizons(id, []int{1, 3})
			if err != nil {
				t.Fatal(err)
			}
			for h, fe := range he {
				if ha[h].Mean != fe.Mean || ha[h].Variance != fe.Variance {
					t.Fatalf("step %d sensor %s h=%d: %v vs %v", i, id, h, ha[h], fe)
				}
			}
			if err := exact.Observe(id, all[i]); err != nil {
				t.Fatal(err)
			}
			if err := anySys.Observe(id, all[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCheckpointLBModelEnvelopeLoads: the state of a `-anytime
// -learned-lb` system saved before the learned lower-bound layer was
// deleted (testdata/checkpoint_learnedlb_pr10.ckpt) still loads, and
// forecasts are bit-identical to what that commit served after
// restoring it. The fixture was saved at commit 946f425 as an SMLRCKP1
// gob envelope whose LBModel field was populated; gob dropped the
// field the struct no longer had, and the state it decoded was
// re-encoded, unchanged, as SMLRCKP2 when the SMLRCKP1 reader was
// retired, and as SMLRCKP3 (no pending answers) when the SMLRCKP2 one
// was. A system that lives through the fixture's stream under
// today's code need not match the fixture — the fixture's
// hyperparameters come from the cold-fit trajectory of its day — so
// that half of the check is a save → load twin instead: the state a
// live system saves now restores into one that serves the live
// system's bits.
func TestCheckpointLBModelEnvelopeLoads(t *testing.T) {
	cfg := smallConfig()
	cfg.Predictor = PredictorGP
	f, err := os.Open("testdata/checkpoint_learnedlb_pr10.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	restored, err := Load(f, cfg)
	if err != nil {
		t.Fatalf("loading a checkpoint that carries an LBModel: %v", err)
	}
	defer restored.Close()

	// Mean/variance bits the parent commit served for h=1 then h=3 after
	// loading the same file.
	parent := map[int][2]uint64{
		1: {0xc00a1a89db46b767, 0x40249006051ae4e2},
		3: {0x40187060d2eb47e4, 0x402cdae86298a571},
	}
	for _, h := range []int{1, 3} {
		got, err := restored.Predict("a", h)
		if err != nil {
			t.Fatal(err)
		}
		if bits := [2]uint64{math.Float64bits(got.Mean), math.Float64bits(got.Variance)}; bits != parent[h] {
			t.Fatalf("h=%d: restored bits %#x, parent commit served %#x", h, bits, parent[h])
		}
	}

	// The stream the fixture's system lived through, then a save → load
	// twin of it.
	live, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	all := noisySeries(rand.New(rand.NewSource(12)), 460)
	if err := live.AddSensor("a", all[:400]); err != nil {
		t.Fatal(err)
	}
	for i := 400; i < 430; i++ {
		if _, err := live.Predict("a", 1); err != nil {
			t.Fatal(err)
		}
		if err := live.Observe("a", all[i]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := live.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	twin, err := Load(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	for _, h := range []int{1, 3} {
		got, err := twin.Predict("a", h)
		if err != nil {
			t.Fatal(err)
		}
		want, err := live.Predict("a", h)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Mean) != math.Float64bits(want.Mean) ||
			math.Float64bits(got.Variance) != math.Float64bits(want.Variance) {
			t.Fatalf("h=%d: twin %v/%v, live %v/%v", h, got.Mean, got.Variance, want.Mean, want.Variance)
		}
	}
}

// TestAnytimeDeadlineLadderMAE measures the quality ladder's value claim: at
// every staged deadline, a progressive answer (the verified-so-far
// neighbor set pushed through the real predictor) forecasts better
// than the AR(1) fallback the system would otherwise serve. Budgets
// are deterministic countdown contexts, so the ladder is reproducible;
// the resulting table is recorded in EXPERIMENTS.md.
func TestAnytimeDeadlineLadderMAE(t *testing.T) {
	cfg := smallConfig()
	cfg.Fallback = FallbackAR1
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rng := rand.New(rand.NewSource(13))
	all := noisySeries(rng, 1000)
	if err := sys.AddSensor("s", all[:900]); err != nil {
		t.Fatal(err)
	}

	// Budget 0 aborts before the filter step completes — every answer
	// is an AR(1) fallback. The rest of the ladder lands mid- or
	// post-verification. Budgets are ctx.Err() call counts: the
	// lower-bound kernel consumes one per block (Omega=8 here), each
	// verify round one more.
	budgets := []int64{0, 9, 10, 12, 16, 1 << 30}
	type rung struct {
		absErr   float64
		n        int
		byTag    map[string]int
		estSum   float64
		fracsSum float64
	}
	rungs := make([]rung, len(budgets))
	for i := range rungs {
		rungs[i].byTag = make(map[string]int)
	}
	for i := 900; i < 960; i++ {
		actual := all[i]
		for bi, b := range budgets {
			f, err := sys.PredictCtx(newCountdown(b), "s", 1)
			if err != nil {
				t.Fatalf("budget %d step %d: %v", b, i, err)
			}
			r := &rungs[bi]
			r.absErr += math.Abs(f.Mean - actual)
			r.n++
			tag := f.Quality
			if f.Degraded {
				tag = "fallback"
			}
			r.byTag[tag]++
			r.estSum += f.QualityEstimate
		}
		if err := sys.Observe("s", actual); err != nil {
			t.Fatal(err)
		}
	}

	if rungs[0].byTag["fallback"] != rungs[0].n {
		t.Fatalf("budget 0 must always fall back, got %v", rungs[0].byTag)
	}
	last := len(budgets) - 1
	if rungs[last].byTag["exact"] != rungs[last].n {
		t.Fatalf("unbounded budget must always be exact, got %v", rungs[last].byTag)
	}
	sawProgressive := false
	fallbackMAE := rungs[0].absErr / float64(rungs[0].n)
	prevEst := -1.0
	for bi := 1; bi < len(budgets); bi++ {
		r := rungs[bi]
		mae := r.absErr / float64(r.n)
		meanEst := r.estSum / float64(r.n)
		t.Logf("budget %10d: MAE %.4f (fallback %.4f)  quality %v  mean estimate %.3f",
			budgets[bi], mae, fallbackMAE, r.byTag, meanEst)
		if r.byTag["progressive"] > 0 {
			sawProgressive = true
		}
		if mae >= fallbackMAE {
			t.Errorf("budget %d: progressive MAE %.4f not better than AR(1) fallback %.4f",
				budgets[bi], mae, fallbackMAE)
		}
		// Quality estimates climb (weakly) with budget: more verified
		// work can only raise the reported confidence.
		if meanEst+1e-9 < prevEst {
			t.Errorf("budget %d: mean quality estimate %.4f fell below previous rung %.4f",
				budgets[bi], meanEst, prevEst)
		}
		prevEst = meanEst
	}
	if !sawProgressive {
		t.Fatal("no staged budget produced a progressive answer — ladder is not exercising the progressive rung")
	}
}

// TestDeadlineContract pins the quality ladder at the public API. With
// a fallback configured, each step's deadlined probes run first: a
// deadline that fires after the lower-bound pass (budget 9: one entry
// check, Omega=8 lower-bound blocks, then the first round runs and the
// check after it trips) completes on the best-so-far sets — never
// degraded, "progressive" with an estimate below 1 unless the first
// round already sealed the answer; one that fires before the
// lower-bound pass ends is the degraded fallback with reason "deadline".
// Neither is reused: the step's undeadlined read that follows computes
// an exact/1 answer. Once it has, every later read of the step gets
// that answer, marked Reused, whatever its budget.
func TestDeadlineContract(t *testing.T) {
	cfg := smallConfig()
	cfg.Fallback = FallbackAR1
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	all := noisySeries(rand.New(rand.NewSource(14)), 920)
	if err := sys.AddSensor("s", all[:900]); err != nil {
		t.Fatal(err)
	}
	progressive := 0
	for _, v := range all[900:] {
		f, err := sys.PredictCtx(newCountdown(9), "s", 1)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case f.Degraded:
			t.Fatalf("deadline after the lower-bound pass fell back: %+v", f)
		case f.Quality == "progressive" && f.QualityEstimate < 1:
			progressive++
		case f.Quality != "exact" || f.QualityEstimate != 1:
			t.Fatalf("deadline after the lower-bound pass: %+v, want progressive/<1 or exact/1", f)
		}
		if f.Reused {
			t.Fatalf("first read of the step reused %+v", f)
		}
		for _, b := range []int64{0, 1, 8} {
			f, err = sys.PredictCtx(newCountdown(b), "s", 1)
			if err != nil {
				t.Fatal(err)
			}
			if !f.Degraded || f.DegradedReason != "deadline" || f.Quality != "fallback" {
				t.Fatalf("budget %d (deadline inside the lower-bound pass): %+v, want the deadline fallback", b, f)
			}
		}
		exact, err := sys.PredictCtx(context.Background(), "s", 1)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Degraded || exact.Quality != "exact" || exact.QualityEstimate != 1 || exact.Reused {
			t.Fatalf("undeadlined forecast: %+v, want a computed exact/1", exact)
		}
		for _, b := range []int64{0, 9} {
			f, err = sys.PredictCtx(newCountdown(b), "s", 1)
			if err != nil {
				t.Fatal(err)
			}
			if !f.Reused || f.Degraded || f.Quality != "exact" || f.QualityEstimate != 1 ||
				math.Float64bits(f.Mean) != math.Float64bits(exact.Mean) ||
				math.Float64bits(f.Variance) != math.Float64bits(exact.Variance) {
				t.Fatalf("budget %d after the exact read: %+v, want the exact answer %+v reused", b, f, exact)
			}
		}
		if err := sys.Observe("s", v); err != nil {
			t.Fatal(err)
		}
	}
	if progressive == 0 {
		t.Fatal("no deadline after the lower-bound pass produced a progressive forecast")
	}
}
