package ingest

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"smiler"
)

// realPipeline builds a pipeline over a real GP System holding one
// sensor "s" with 400 points of a seasonal series, and returns the 20
// observations that follow.
func realPipeline(t *testing.T, fallback smiler.FallbackKind) (*Pipeline, []float64) {
	t.Helper()
	cfg := smiler.DefaultConfig()
	cfg.Rho, cfg.Omega = 3, 8
	cfg.ELV = []int{16, 24, 40}
	cfg.EKV = []int{4, 8}
	cfg.Fallback = fallback
	sys, err := smiler.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	rng := rand.New(rand.NewSource(45))
	all := make([]float64, 420)
	for i := range all {
		all[i] = 50 + 10*math.Sin(2*math.Pi*float64(i)/48) + rng.NormFloat64()
	}
	if err := sys.AddSensor("s", all[:400]); err != nil {
		t.Fatal(err)
	}
	return mustPipeline(t, sys, Config{Shards: 2}), all[400:]
}

// read forecasts sensor "s" at hs.
func read(t *testing.T, p *Pipeline, hs ...int) []smiler.Forecast {
	t.Helper()
	fs, err := p.ForecastsCtx(context.Background(), "s", hs)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// observe applies one observation of "s" and waits for it.
func observe(t *testing.T, p *Pipeline, v float64) {
	t.Helper()
	if ok, err := p.Observe("s", v); !ok || err != nil {
		t.Fatalf("observe: ok=%v err=%v", ok, err)
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
}

func sameBits(a, b smiler.Forecast) bool {
	return math.Float64bits(a.Mean) == math.Float64bits(b.Mean) &&
		math.Float64bits(a.Variance) == math.Float64bits(b.Variance)
}

// TestForecastCachedUntilNextObservation: between two observations a
// read of a horizon some read already answered is served that answer
// (a hit when every horizon was); the next observation starts the
// sensor's step with nothing to reuse.
func TestForecastCachedUntilNextObservation(t *testing.T) {
	p, next := realPipeline(t, smiler.FallbackNone)
	f1 := read(t, p, 1)[0]
	f2 := read(t, p, 1)[0]
	if f1.Reused || !f2.Reused || !sameBits(f1, f2) {
		t.Fatalf("repeated read: first %+v, second %+v", f1, f2)
	}
	// A set with a new horizon computes only that one.
	fs := read(t, p, 3, 1)
	if fs[0].Reused || fs[0].Horizon != 3 || !fs[1].Reused || !sameBits(fs[1], f1) {
		t.Fatalf("hs=3,1 after h=1: %+v", fs)
	}
	for _, f := range read(t, p, 1, 3) {
		if !f.Reused {
			t.Fatalf("hs=1,3 after both were answered: %+v", f)
		}
	}
	if st := p.Stats().Coalesce; st.CacheHits != 2 || st.Misses != 2 {
		t.Fatalf("stats before the observation = %+v, want 2 hits, 2 misses", st)
	}
	observe(t, p, next[0])
	if f := read(t, p, 1)[0]; f.Reused || sameBits(f, f1) {
		t.Fatalf("read after an observation reused %+v", f)
	}
	if st := p.Stats().Coalesce; st.CacheHits != 2 || st.Misses != 3 {
		t.Fatalf("stats after the observation = %+v, want 2 hits, 3 misses", st)
	}
}

// TestReadsInOneStepServeOneAnswer: however a step's reads repeat,
// split, merge or reorder horizons, each horizon has one answer.
func TestReadsInOneStepServeOneAnswer(t *testing.T) {
	p, next := realPipeline(t, smiler.FallbackNone)
	for step := 0; step < 3; step++ {
		byH := map[int]smiler.Forecast{}
		for _, hs := range [][]int{{1}, {1}, {1, 3}, {3, 1}} {
			for _, f := range read(t, p, hs...) {
				if first, ok := byH[f.Horizon]; ok && !sameBits(f, first) {
					t.Fatalf("step %d hs=%v: h=%d served %v, earlier %v", step, hs, f.Horizon, f.Mean, first.Mean)
				}
				byH[f.Horizon] = f
			}
		}
		observe(t, p, next[step])
	}
}

// TestExtraReadsLeaveLaterStepsAlone: a client that also asks [1]
// before [1,3] every step is served the bits of a client that asks
// only [1,3], at every step.
func TestExtraReadsLeaveLaterStepsAlone(t *testing.T) {
	lone, next := realPipeline(t, smiler.FallbackNone)
	chatty, _ := realPipeline(t, smiler.FallbackNone)
	for step := 0; step < 10; step++ {
		read(t, chatty, 1)
		want := read(t, lone, 1, 3)
		got := read(t, chatty, 1, 3)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("step %d h=%d: %v after an extra read, %v without", step, want[i].Horizon, got[i].Mean, want[i].Mean)
			}
		}
		observe(t, lone, next[step])
		observe(t, chatty, next[step])
	}
}

// TestForecastSingleFlight aims a herd of identical reads at one
// sensor: one of them runs the search, the others are served its
// answer.
func TestForecastSingleFlight(t *testing.T) {
	p, _ := realPipeline(t, smiler.FallbackNone)
	const herd = 16
	out := make([]smiler.Forecast, herd)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			fs, err := p.ForecastsCtx(context.Background(), "s", []int{1})
			if err != nil {
				t.Error(err)
				return
			}
			out[i] = fs[0]
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range out {
		if !sameBits(out[i], out[0]) {
			t.Fatalf("herd answers diverged: %v vs %v", out[i].Mean, out[0].Mean)
		}
	}
	if st := p.Stats().Coalesce; st.Misses != 1 || st.CacheHits != herd-1 {
		t.Fatalf("herd of %d: %+v, want 1 miss and %d hits", herd, st, herd-1)
	}
}

// TestNonExactForecastNeverCached: a degraded answer is never reused —
// each read under an expired context falls back again — while an exact
// answer, once computed, is what every later read of the step gets,
// whatever its deadline.
func TestNonExactForecastNeverCached(t *testing.T) {
	p, _ := realPipeline(t, smiler.FallbackAR1)
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 2; i++ {
		fs, err := p.ForecastsCtx(expired, "s", []int{1})
		if err != nil || !fs[0].Degraded || fs[0].Reused {
			t.Fatalf("expired read %d: %+v, %v", i, fs, err)
		}
	}
	exact := read(t, p, 1)[0]
	if exact.Degraded || exact.Reused || exact.Quality != "exact" {
		t.Fatalf("undeadlined read after fallbacks: %+v", exact)
	}
	fs, err := p.ForecastsCtx(expired, "s", []int{1})
	if err != nil || !fs[0].Reused || fs[0].Degraded || !sameBits(fs[0], exact) {
		t.Fatalf("expired read after the exact one: %+v, %v", fs, err)
	}
	if st := p.Stats().Coalesce; st.Misses != 3 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want 3 misses, 1 hit", st)
	}
}

// TestForecastErrorsNotCached: a failed request is a miss every time.
func TestForecastErrorsNotCached(t *testing.T) {
	p, _ := realPipeline(t, smiler.FallbackNone)
	for i := 0; i < 2; i++ {
		if _, err := p.ForecastsCtx(context.Background(), "ghost", []int{1}); err == nil || !strings.Contains(err.Error(), "unknown sensor") {
			t.Fatalf("forecast #%d: %v", i, err)
		}
	}
	if st := p.Stats().Coalesce; st.Misses != 2 || st.CacheHits != 0 {
		t.Fatalf("stats = %+v, want 2 misses", st)
	}
}
