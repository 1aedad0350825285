package main

import (
	"math"
	"sort"
)

// metricDef is one row of BENCHMARK.json: the single source of truth
// the JSON file is checked against (TestBenchmarkJSONMatchesCode).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the metrics a user of the serving system would see.
// Every workload reports all of them, measured with tracing off. Bound
// is the share of the parent's median a metric may worsen by. The bounds
// are as wide as the contract allows because the 2-core box they were
// set on drifts by 10-15% over minutes with nothing else changed
// (README, "Noise"), and peak RSS summed over three Go processes moves
// almost as much with GC timing.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"observations_per_s", "1/s", "higher", 0.25},
	{"forecasts_per_s", "1/s", "higher", 0.25},
	{"forecast_p50_ms", "ms", "lower", 0.25},
	{"forecast_p90_ms", "ms", "lower", 0.25},
	{"forecast_mae_ratio", "ratio", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
}

// perLayer are the single-layer metrics of a traced run: the ladder
// (timed in this process through each layer's public entry point) and
// the counter deltas scraped from the servers. Layer = module name.
var perLayer = []metricDef{
	// Forecast ladder, top to bottom.
	{Name: "server.noop_us", Unit: "us", Better: "lower"},
	{Name: "server.forecast_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.forecast_ms", Unit: "ms", Better: "lower"},
	{Name: "smiler.predict_ms", Unit: "ms", Better: "lower"},
	{Name: "core.predict_ms", Unit: "ms", Better: "lower"},
	{Name: "core.search_ms", Unit: "ms", Better: "lower"},
	{Name: "core.predict_step_ms", Unit: "ms", Better: "lower"},
	{Name: "index.lower_bound_ms", Unit: "ms", Better: "lower"},
	{Name: "index.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "gp.cell_fit_ms", Unit: "ms", Better: "lower"},
	{Name: "core.mix_us", Unit: "us", Better: "lower"},
	{Name: "index.search_ms", Unit: "ms", Better: "lower"},
	// Observe ladder.
	{Name: "server.observe_us", Unit: "us", Better: "lower"},
	{Name: "ingest.enqueue_us", Unit: "us", Better: "lower"},
	{Name: "ingest.apply_us", Unit: "us", Better: "lower"},
	{Name: "smiler.observe_us", Unit: "us", Better: "lower"},
	{Name: "core.observe_us", Unit: "us", Better: "lower"},
	{Name: "core.reweight_us", Unit: "us", Better: "lower"},
	{Name: "index.advance_us", Unit: "us", Better: "lower"},
	// Stand-alone layer costs.
	{Name: "index.build_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.sync_us", Unit: "us", Better: "lower"},
	{Name: "wal.replay_kobs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "tier.spill_ms", Unit: "ms", Better: "lower"},
	{Name: "tier.spill_bytes", Unit: "bytes", Better: "lower"},
	{Name: "tier.fault_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "gp.fit32_us", Unit: "us", Better: "lower"},
	{Name: "gp.optimize32_ms", Unit: "ms", Better: "lower"},
	{Name: "dtw.abandon_us", Unit: "us", Better: "lower"},
	{Name: "gpusim.launch_us", Unit: "us", Better: "lower"},
	// Counts and in-situ means over the traced steady phase.
	{Name: "ingest.avg_batch", Unit: "count", Better: "higher"},
	{Name: "ingest.queue_wait_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "ingest.stale_hits", Unit: "count", Better: "lower"},
	{Name: "wal.fsyncs_per_kobs", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_obs", Unit: "bytes", Better: "lower"},
	{Name: "tier.faults_per_kobs", Unit: "count", Better: "lower"},
	{Name: "tier.evictions_per_kobs", Unit: "count", Better: "lower"},
	{Name: "index.pruned_ratio", Unit: "ratio", Better: "higher"},
	{Name: "index.verified_per_forecast", Unit: "count", Better: "lower"},
	{Name: "gp.fits_per_forecast", Unit: "count", Better: "lower"},
	{Name: "gp.optimizer_evals_per_forecast", Unit: "count", Better: "lower"},
	{Name: "cluster.forward_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cluster.forward_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "cluster.replicated_frames_per_obs", Unit: "count", Better: "lower"},
	{Name: "cluster.replication_lag_frames_max", Unit: "count", Better: "lower"},
	{Name: "memsys.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "obs.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "obs.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "core.search_ms_insitu", Unit: "ms", Better: "lower"},
	{Name: "gp.cell_fit_ms_insitu", Unit: "ms", Better: "lower"},
	{Name: "index.advance_us_insitu", Unit: "us", Better: "lower"},
	{Name: "server.forecast_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.observe_ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "higher"},
}

// percentile returns the q-quantile (0..1) of xs by the nearest-rank
// rule on a sorted copy; NaN for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is how
// the driver judges run-to-run spread. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	const n = 4
	m := len(s) + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}
