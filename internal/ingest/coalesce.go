package ingest

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"smiler"
)

// maxCachedHorizons bounds the per-sensor forecast cache: a sensor's
// entry holds at most this many distinct horizons between two
// observations. Beyond that, extra horizons are simply recomputed.
const maxCachedHorizons = 16

// flightKey identifies one deduplicable forecast computation: a sensor
// and the ordered horizon set requested (fmt.Sprint of the list — the
// order is part of the key because it is the order the pipeline fits
// the horizons in).
type flightKey struct {
	id string
	hs string
}

// flight is one in-progress forecast computation; followers block on
// done and read fs/err afterwards.
type flight struct {
	done  chan struct{}
	stale bool              // an observation landed while the computation ran
	fs    []smiler.Forecast // aligned with the requested horizons
	err   error
}

// coalescer is the read-side of the pipeline and the single forecast
// entry: a single-flight layer keyed (sensor, horizon set) plus a small
// per-sensor forecast cache keyed (sensor, horizon), invalidated by that
// sensor's next observation. A thundering herd of identical forecast
// requests costs one kNN search + one model fit per horizon.
//
// A miss on a set that contains an already-computed horizon recomputes
// it, and that is safe for the ensemble: the pipeline queues one
// reweighting per (target, horizon), so the repeat leaves the update the
// first computation queued, exactly as a cache hit would. What a repeat
// does move is the sensor's GP cells: each fit warm-starts from the
// previous optimum, so a second fit of the same neighbours can land on a
// slightly different one and later forecasts differ in the last digits.
// That is the semi-lazy design (a cell carries its hyperparameters from
// one query to the next), not a second scoring of one truth.
type coalescer struct {
	sys System

	mu      sync.Mutex
	cache   map[string]map[int]smiler.Forecast
	flights map[flightKey]*flight

	hits          atomic.Uint64
	waits         atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
	panics        atomic.Uint64
}

func newCoalescer(sys System) *coalescer {
	return &coalescer{
		sys:     sys,
		cache:   make(map[string]map[int]smiler.Forecast),
		flights: make(map[flightKey]*flight),
	}
}

// forecasts returns the sensor's forecast at every horizon in hs, in
// that order (a single horizon is the one-element set). The request is
// a cache hit when the sensor has not been observed since every
// requested horizon was computed; otherwise the whole set is computed
// at most once no matter how many callers ask for it concurrently. The
// counters are per request, not per horizon. ctx carries request-scoped values (the
// distributed trace context) into the computation this caller starts;
// followers piggyback on the leader's flight and its ctx. The returned
// slice may be shared with other callers and must not be modified.
func (c *coalescer) forecasts(ctx context.Context, id string, hs []int) ([]smiler.Forecast, error) {
	c.mu.Lock()
	if fs := c.cachedLocked(id, hs); fs != nil {
		c.mu.Unlock()
		c.hits.Add(1)
		return fs, nil
	}
	key := flightKey{id: id, hs: fmt.Sprint(hs)}
	if fl, ok := c.flights[key]; ok {
		c.mu.Unlock()
		c.waits.Add(1)
		<-fl.done
		return fl.fs, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	c.flights[key] = fl
	c.mu.Unlock()

	c.misses.Add(1)
	fs, err := c.safePredict(ctx, id, hs)

	c.mu.Lock()
	delete(c.flights, key)
	fl.fs, fl.err = fs, err
	// Cache only clean, full-pipeline, exact successes: if an
	// observation was applied while we computed, the result describes
	// the pre-observation state; a degraded (fallback) answer must not
	// shadow the real pipeline once it recovers; and a progressive
	// (deadline-truncated) answer is a product of its moment's load —
	// caching it would pin a lower-quality forecast on followers who
	// might have gotten an exact one, so every non-exact request gets a
	// fresh chance.
	if err == nil && !fl.stale {
		byH := c.cache[id]
		for i, f := range fs {
			if f.Degraded || !cacheableQuality(f.Quality) {
				continue
			}
			if byH == nil {
				byH = make(map[int]smiler.Forecast)
				c.cache[id] = byH
			}
			// A horizon an overlapping set cached first keeps its value:
			// between two observations a horizon has one cached answer.
			if _, have := byH[hs[i]]; !have && len(byH) < maxCachedHorizons {
				byH[hs[i]] = f
			}
		}
	}
	c.mu.Unlock()
	close(fl.done)
	return fs, err
}

// cachedLocked returns the cached forecasts for hs, or nil unless every
// requested horizon is cached. Callers hold c.mu.
func (c *coalescer) cachedLocked(id string, hs []int) []smiler.Forecast {
	byH := c.cache[id]
	if len(byH) == 0 || len(hs) == 0 {
		return nil
	}
	out := make([]smiler.Forecast, len(hs))
	for i, h := range hs {
		f, ok := byH[h]
		if !ok {
			return nil
		}
		out[i] = f
	}
	return out
}

// cacheableQuality reports whether a forecast's quality rung may enter
// the cache: only exact answers (the empty tag covers systems and test
// fakes predating the quality ladder).
func cacheableQuality(q string) bool { return q == "" || q == "exact" }

// safePredict runs the system's predict with a panic guard: a panic
// inside the prediction pipeline fails this flight (all coalesced
// followers see the error) instead of killing the process.
func (c *coalescer) safePredict(ctx context.Context, id string, hs []int) (fs []smiler.Forecast, err error) {
	defer func() {
		if r := recover(); r != nil {
			c.panics.Add(1)
			fs, err = nil, fmt.Errorf("ingest: recovered panic in forecast: %v", r)
		}
	}()
	byH, err := c.sys.PredictHorizonsCtx(ctx, id, hs)
	if err != nil {
		return nil, err
	}
	fs = make([]smiler.Forecast, len(hs))
	for i, h := range hs {
		fs[i] = byH[h]
	}
	return fs, nil
}

// invalidate flushes the sensor's cached forecasts and marks its
// in-flight computations stale. Called by shard workers after each
// applied observation and by the server when a sensor is removed.
func (c *coalescer) invalidate(id string) {
	c.mu.Lock()
	if _, ok := c.cache[id]; ok {
		delete(c.cache, id)
		c.invalidations.Add(1)
	}
	for key, fl := range c.flights {
		if key.id == id {
			fl.stale = true
		}
	}
	c.mu.Unlock()
}

func (c *coalescer) stats() CoalesceStats {
	c.mu.Lock()
	size := 0
	for _, byH := range c.cache {
		size += len(byH)
	}
	c.mu.Unlock()
	return CoalesceStats{
		CacheHits:      c.hits.Load(),
		CoalescedWaits: c.waits.Load(),
		Misses:         c.misses.Load(),
		Invalidations:  c.invalidations.Load(),
		CacheSize:      size,
		Panics:         c.panics.Load(),
	}
}
