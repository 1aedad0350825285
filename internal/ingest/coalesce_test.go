package ingest

import (
	"context"
	"strings"
	"sync"
	"testing"
)

func TestForecastCachedUntilNextObservation(t *testing.T) {
	sys := newFakeSystem()
	p := mustPipeline(t, sys, Config{Shards: 2})

	f1, err := p.Forecast("s", 1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := p.Forecast("s", 1)
	if err != nil {
		t.Fatal(err)
	}
	if sys.predictCalls.Load() != 1 {
		t.Fatalf("predict ran %d times for identical requests, want 1", sys.predictCalls.Load())
	}
	if f1.Mean != f2.Mean {
		t.Fatalf("cached forecast diverged: %v vs %v", f1.Mean, f2.Mean)
	}
	// A different horizon is a different cache key.
	if _, err := p.Forecast("s", 3); err != nil {
		t.Fatal(err)
	}
	if sys.predictCalls.Load() != 2 {
		t.Fatalf("distinct horizon should recompute, got %d calls", sys.predictCalls.Load())
	}

	// Observing the sensor invalidates its cache; the next forecast
	// sees the post-observation state.
	if ok, err := p.Observe("s", 42); !ok || err != nil {
		t.Fatalf("observe: ok=%v err=%v", ok, err)
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	f3, err := p.Forecast("s", 1)
	if err != nil {
		t.Fatal(err)
	}
	if sys.predictCalls.Load() != 3 {
		t.Fatalf("observation should invalidate cache, got %d calls", sys.predictCalls.Load())
	}
	if f3.Mean != float64(sys.applied.Load()) {
		t.Fatalf("post-observation forecast stale: mean %v", f3.Mean)
	}

	st := p.Stats().Coalesce
	if st.CacheHits != 1 || st.Misses != 3 || st.Invalidations == 0 {
		t.Fatalf("coalesce stats = %+v", st)
	}

	// Horizon sets use the same per-horizon cache: a set fully covered
	// by cached horizons is one hit and no computation; a set with any
	// uncached horizon is one miss that computes the whole set.
	ctx := context.Background()
	if _, err := p.Forecast("s", 3); err != nil { // h=1 is cached; add h=3
		t.Fatal(err)
	}
	fs, err := p.ForecastsCtx(ctx, "s", []int{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 || fs[0].Horizon != 3 || fs[1].Horizon != 1 || fs[1].Mean != f3.Mean {
		t.Fatalf("covered set = %+v", fs)
	}
	if sys.predictCalls.Load() != 4 {
		t.Fatalf("covered set recomputed: %d calls", sys.predictCalls.Load())
	}
	if _, err := p.ForecastsCtx(ctx, "s", []int{1, 3, 6}); err != nil {
		t.Fatal(err)
	}
	if sys.predictCalls.Load() != 5 {
		t.Fatalf("partly covered set should compute once, got %d calls", sys.predictCalls.Load())
	}
	st = p.Stats().Coalesce
	if st.CacheHits != 2 || st.Misses != 5 || st.CacheSize != 3 {
		t.Fatalf("coalesce stats after sets = %+v", st)
	}
}

// TestNonExactForecastNeverCached pins the quality-ladder cache
// policy: exact (and legacy untagged) forecasts cache, while
// progressive and fallback answers are recomputed on every request —
// a deadline-truncated or degraded result must not shadow the exact
// answer a later caller could get.
func TestNonExactForecastNeverCached(t *testing.T) {
	sys := newFakeSystem()
	p := mustPipeline(t, sys, Config{Shards: 2})

	for _, tc := range []struct {
		quality   string
		cacheable bool
	}{
		{"progressive", false},
		{"fallback", false},
		{"exact", true},
		{"", true},
	} {
		sys.quality.Store(tc.quality)
		// Fresh cache state per case: invalidate via an observation.
		if ok, err := p.Observe("s", 1); !ok || err != nil {
			t.Fatalf("observe: ok=%v err=%v", ok, err)
		}
		if err := p.Drain(); err != nil {
			t.Fatal(err)
		}
		before := sys.predictCalls.Load()
		for i := 0; i < 3; i++ {
			f, err := p.Forecast("s", 1)
			if err != nil {
				t.Fatalf("quality %q: forecast: %v", tc.quality, err)
			}
			if f.Quality != tc.quality {
				t.Fatalf("quality %q: forecast tagged %q", tc.quality, f.Quality)
			}
		}
		calls := sys.predictCalls.Load() - before
		if tc.cacheable && calls != 1 {
			t.Fatalf("quality %q: predict ran %d times, want 1 (cached)", tc.quality, calls)
		}
		if !tc.cacheable && calls != 3 {
			t.Fatalf("quality %q: predict ran %d times, want 3 (never cached)", tc.quality, calls)
		}
	}
}

// TestForecastSingleFlight aims a thundering herd of identical
// requests at one (sensor, horizon set): exactly one Predict runs,
// every caller gets its result.
func TestForecastSingleFlight(t *testing.T) {
	for _, hs := range [][]int{{1}, {1, 3, 6}} {
		herdOnSet(t, hs)
	}
}

func herdOnSet(t *testing.T, hs []int) {
	sys := newFakeSystem()
	sys.predictGate = make(chan struct{})
	p := mustPipeline(t, sys, Config{Shards: 1})

	const herd = 8
	results := make(chan float64, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fs, err := p.ForecastsCtx(context.Background(), "s", hs)
			if err != nil || len(fs) != len(hs) {
				t.Errorf("forecast %v: %d results, err %v", hs, len(fs), err)
				return
			}
			results <- fs[len(fs)-1].Mean
		}()
	}
	// Predict blocks on the gate, so every follower must be either
	// waiting on the flight or served from cache after it lands. Wait
	// until all but the leader are accounted for, then release.
	waitFor(t, "herd to coalesce", func() bool {
		return p.Stats().Coalesce.CoalescedWaits == herd-1
	})
	close(sys.predictGate)
	wg.Wait()
	close(results)

	if calls := sys.predictCalls.Load(); calls != 1 {
		t.Fatalf("herd of %d triggered %d predictions, want 1", herd, calls)
	}
	var first float64
	n := 0
	for m := range results {
		if n == 0 {
			first = m
		} else if m != first {
			t.Fatalf("herd results diverged: %v vs %v", m, first)
		}
		n++
	}
	if n != herd {
		t.Fatalf("got %d results, want %d", n, herd)
	}
}

// TestStaleFlightNotCached: an observation that lands while a
// forecast is computing must keep the (pre-observation) result — every
// horizon of it — out of the cache.
func TestStaleFlightNotCached(t *testing.T) {
	for _, hs := range [][]int{{1}, {1, 3, 6}} {
		staleFlightOnSet(t, hs)
	}
}

func staleFlightOnSet(t *testing.T, hs []int) {
	sys := newFakeSystem()
	sys.predictGate = make(chan struct{})
	p := mustPipeline(t, sys, Config{Shards: 1})

	done := make(chan struct{})
	go func() {
		defer close(done)
		p.ForecastsCtx(context.Background(), "s", hs)
	}()
	waitFor(t, "leader to start computing", func() bool {
		return sys.predictCalls.Load() == 1
	})
	if ok, err := p.Observe("s", 7); !ok || err != nil {
		t.Fatalf("observe: ok=%v err=%v", ok, err)
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	close(sys.predictGate)
	<-done
	if st := p.Stats().Coalesce; st.CacheSize != 0 {
		t.Fatalf("hs=%v: stale flight cached %d horizons", hs, st.CacheSize)
	}

	// The stale result must not serve the next request from cache.
	f, err := p.Forecast("s", hs[len(hs)-1])
	if err != nil {
		t.Fatal(err)
	}
	if sys.predictCalls.Load() != 2 {
		t.Fatalf("stale flight was cached: %d calls", sys.predictCalls.Load())
	}
	if f.Mean != float64(sys.applied.Load()) {
		t.Fatalf("stale mean %v served", f.Mean)
	}
}

func TestForecastErrorsNotCached(t *testing.T) {
	sys := newFakeSystem()
	sys.known = map[string]bool{}
	p := mustPipeline(t, sys, Config{Shards: 1})
	for i := 0; i < 2; i++ {
		if _, err := p.Forecast("ghost", 1); err == nil || !strings.Contains(err.Error(), "unknown sensor") {
			t.Fatalf("forecast #%d: %v", i, err)
		}
	}
	if sys.predictCalls.Load() != 2 {
		t.Fatalf("errors must not be cached: %d calls", sys.predictCalls.Load())
	}
	if st := p.Stats().Coalesce; st.CacheSize != 0 {
		t.Fatalf("error cached: %+v", st)
	}
}

func TestInvalidateAndCacheBound(t *testing.T) {
	sys := newFakeSystem()
	p := mustPipeline(t, sys, Config{Shards: 1})
	// Fill past the per-sensor horizon bound; overflow horizons are
	// recomputed, not cached.
	for h := 1; h <= maxCachedHorizons+5; h++ {
		if _, err := p.Forecast("s", h); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats().Coalesce; st.CacheSize != maxCachedHorizons {
		t.Fatalf("cache size %d, want %d", st.CacheSize, maxCachedHorizons)
	}
	// Out-of-band invalidation (sensor removal) empties it.
	p.Invalidate("s")
	if st := p.Stats().Coalesce; st.CacheSize != 0 {
		t.Fatalf("cache not flushed: %+v", st)
	}
}
