package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// traceShare is the part of -seconds each of the traced run's two
// steady phases lasts: the traced run is a quarter-length rerun, and
// end-to-end numbers never come from it.
const traceShare = 0.25

// traceFile is what a traced run leaves in benchmark/out/.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Metrics  map[string]float64 `json:"metrics"`
	Spans    []span             `json:"spans"`
}

// lagSampler polls the replication-lag gauge while the traced phase
// runs; its scrapes are part of what bench.trace_overhead_ratio prices.
func (s *stack) lagSampler(stop <-chan struct{}, done *sync.WaitGroup, max *float64) {
	defer done.Done()
	t := time.NewTicker(250 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if m, err := s.scrape(); err == nil {
				if v := m.sum("smiler_cluster_replication_lag_frames"); v > *max {
					*max = v
				}
			}
		}
	}
}

// runTraced is the per-layer run: the in-process ladder at the
// workload's history length, then one set-up measured twice at quarter
// length — untraced, then traced with client spans, counter scrapes and
// the lag sampler — so the overhead of tracing is itself reported.
func runTraced(e *env, sp spec, o runOpts) (*result, error) {
	r := &result{workload: sp.name, metrics: make(map[string]float64), correct: true, storage: e.storage}
	ladderMetrics, spans, err := runLadder(sp, o.seed, e.scratch)
	if err != nil {
		return nil, err
	}
	for k, v := range ladderMetrics {
		r.metrics[k] = v
	}

	st, _, err := setUp(e, sp, o)
	if err != nil {
		return nil, err
	}
	defer st.cl.stop()
	o.seconds *= traceShare
	if o.rounds > 0 {
		o.rounds = (o.rounds + 3) / 4
	}
	plain, err := st.steady(o, false)
	if err != nil {
		return nil, err
	}
	before, err := st.scrape()
	if err != nil {
		return nil, err
	}
	var lagMax float64
	var sampler sync.WaitGroup
	stop := make(chan struct{})
	sampler.Add(1)
	go st.lagSampler(stop, &sampler, &lagMax)
	traced, err := st.steady(o, true)
	close(stop)
	sampler.Wait()
	if err != nil {
		return nil, err
	}
	after, err := st.scrape()
	if err != nil {
		return nil, err
	}

	// Fold both phases for their failure accounting; the end-to-end
	// values this leaves in r.metrics are dropped again below, because
	// end-to-end numbers never come from a traced run.
	r.foldSteady(plain)
	plainRate := r.metrics["forecasts_per_s"]
	r.foldSteady(traced)
	overhead := ratio(r.metrics["forecasts_per_s"], plainRate)
	for _, d := range endToEnd {
		delete(r.metrics, d.Name)
	}
	observations, requests := 0, 0
	var forecastMs, observeMs []float64
	for _, p := range traced.phases {
		observations += p.observations
		requests += p.requests
		forecastMs = append(forecastMs, p.forecastMs...)
		observeMs = append(observeMs, p.observeMs...)
		spans = append(spans, p.spans...)
	}
	counterMetrics(before, after, observations, len(forecastMs), requests, r.metrics)
	r.metrics["cluster.replication_lag_frames_max"] = lagMax
	r.metrics["server.forecast_p99_ms"] = percentile(forecastMs, 0.99)
	r.metrics["server.observe_ack_p50_ms"] = median(observeMs)
	r.metrics["bench.trace_overhead_ratio"] = overhead

	st.verify(r, sp.bitExact)
	checkLadder(r)

	out := filepath.Join(e.root, "benchmark", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	b, err := json.Marshal(traceFile{Workload: sp.name, Seed: o.seed, Metrics: r.metrics, Spans: spans})
	if err != nil {
		return nil, err
	}
	return r, os.WriteFile(filepath.Join(out, "trace-"+sp.name+".json"), b, 0o644)
}

// checkLadder holds the ladder to its own arithmetic: rungs do not get
// cheaper going up, and the search and prediction steps account for the
// core rung to within 5%.
func checkLadder(r *result) {
	m := r.metrics
	order := []string{"core.predict_ms", "smiler.predict_ms", "ingest.forecast_ms", "server.forecast_ms"}
	for i := 1; i < len(order); i++ {
		if m[order[i]] < m[order[i-1]] {
			r.problem("ladder not monotone: %s=%v < %s=%v", order[i], m[order[i]], order[i-1], m[order[i-1]])
		}
	}
	if parts, whole := m["core.search_ms"]+m["core.predict_step_ms"], m["core.predict_ms"]; parts < 0.95*whole || parts > 1.05*whole {
		r.problem("core.search_ms + core.predict_step_ms = %v is not within 5%% of core.predict_ms = %v", parts, whole)
	}
}
