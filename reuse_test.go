package smiler

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"smiler/internal/fault"
)

// reuseSystem builds a GP system holding sensor "s" (400 points) and
// returns the observations that follow.
func reuseSystem(t *testing.T, fallback FallbackKind) (*System, []float64) {
	t.Helper()
	cfg := smallConfig()
	cfg.Predictor = PredictorGP
	cfg.Fallback = fallback
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	all := noisySeries(rand.New(rand.NewSource(45)), 420)
	if err := sys.AddSensor("s", all[:400]); err != nil {
		t.Fatal(err)
	}
	return sys, all[400:]
}

func mustPredict(t *testing.T, sys *System, h int) Forecast {
	t.Helper()
	f, err := sys.Predict("s", h)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func sameForecast(a, b Forecast) bool {
	return math.Float64bits(a.Mean) == math.Float64bits(b.Mean) &&
		math.Float64bits(a.Variance) == math.Float64bits(b.Variance)
}

// TestFailedAnswerNotReused: a read that failed (an injected GP fit
// error) leaves nothing to reuse, with and without a fallback.
func TestFailedAnswerNotReused(t *testing.T) {
	for _, fb := range []FallbackKind{FallbackNone, FallbackAR1} {
		sys, _ := reuseSystem(t, fb)
		in := fault.NewInjector(1)
		in.Set(fault.PointGPFit, fault.Rule{Kind: fault.KindError, Prob: 1})
		fault.Arm(in)
		f, err := sys.Predict("s", 1)
		fault.Disarm()
		if fb == FallbackNone && err == nil || fb != FallbackNone && (err != nil || !f.Degraded) {
			t.Fatalf("fallback %v: failed read gave %+v, %v", fb, f, err)
		}
		if f = mustPredict(t, sys, 1); f.Reused || f.Degraded || f.Quality != "exact" {
			t.Fatalf("fallback %v: read after a failed one: %+v", fb, f)
		}
		if f = mustPredict(t, sys, 1); !f.Reused {
			t.Fatalf("fallback %v: second exact read not reused: %+v", fb, f)
		}
	}
}

// TestReuseStartsEmpty: an observation, a removal followed by a re-add
// of the same id, and a restore of a snapshot taken before the step's
// read each leave the sensor with no answer to reuse (a restore brings
// the snapshot's answers, not the replaced sensor's).
func TestReuseStartsEmpty(t *testing.T) {
	sys, next := reuseSystem(t, FallbackNone)
	hist, err := sys.History("s")
	if err != nil {
		t.Fatal(err)
	}
	first := mustPredict(t, sys, 1)
	if err := sys.Observe("s", next[0]); err != nil {
		t.Fatal(err)
	}
	if f := mustPredict(t, sys, 1); f.Reused {
		t.Fatalf("read after an observation reused %+v", f)
	}

	if err := sys.RemoveSensor("s"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddSensor("s", hist); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := sys.SaveSensorTo(&ckpt, "s"); err != nil {
		t.Fatal(err)
	}
	if f := mustPredict(t, sys, 1); f.Reused || !sameForecast(f, first) {
		t.Fatalf("read after remove + re-add: %+v, want a fresh %+v", f, first)
	}

	if _, err := sys.RestoreSensorsFrom(&ckpt); err != nil {
		t.Fatal(err)
	}
	if f := mustPredict(t, sys, 1); f.Reused || !sameForecast(f, first) {
		t.Fatalf("read after a restore: %+v, want a fresh %+v", f, first)
	}
}

// TestNaNObserveImputesReusedAnswer: a missing reading is filled with
// the step's exact h=1 answer when a read computed one, bit for bit.
func TestNaNObserveImputesReusedAnswer(t *testing.T) {
	sys, next := reuseSystem(t, FallbackNone)
	for step := 0; step < 6; step++ {
		f := mustPredict(t, sys, 1)
		v := next[step]
		if step%2 == 1 {
			v = math.NaN()
		}
		if err := sys.Observe("s", v); err != nil {
			t.Fatal(err)
		}
		if step%2 == 0 {
			continue
		}
		hist, err := sys.History("s")
		if err != nil {
			t.Fatal(err)
		}
		if got := hist[len(hist)-1]; math.Float64bits(got) != math.Float64bits(f.Mean) {
			t.Fatalf("step %d: imputed %v, the step's h=1 answer was %v", step, got, f.Mean)
		}
	}
}
