package ingest

import (
	"strconv"

	"smiler/internal/obs"
)

// RegisterMetrics bridges the pipeline's counters into a metrics
// registry as lazy collectors: the shards keep writing their own
// atomics (zero extra hot-path cost) and the registry reads them at
// scrape time. Safe to call on a nil registry (no-op). The shard label
// is the shard index; the apply-latency counter is a running sum of
// seconds, so rate(latency)/rate(processed) is the mean call-to-applied
// latency (shard lock wait, journal and apply) over any scrape window —
// the same quantity /pipeline/stats reports as AvgLatencyMicros since
// startup.
func (p *Pipeline) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("smiler_ingest_shards",
		"Shards in the ingestion pipeline.",
		func() float64 { return float64(len(p.shards)) })
	for _, sh := range p.shards {
		sh := sh
		label := obs.L("shard", strconv.Itoa(sh.id))
		reg.CounterFunc("smiler_ingest_processed_total",
			"Observations that reached the system's apply, applied or failed.",
			func() float64 { return float64(sh.processed.Load()) }, label)
		reg.CounterFunc("smiler_ingest_errors_total",
			"Observations whose apply failed or panicked.",
			func() float64 { return float64(sh.errs.Load()) }, label)
		reg.CounterFunc("smiler_ingest_apply_latency_seconds_total",
			"Cumulative call-to-applied latency: shard lock wait, journal and apply.",
			func() float64 { return float64(sh.latencyNs.Load()) / 1e9 }, label)
	}
	reg.CounterFunc("smiler_forecast_cache_hits_total",
		"Forecast requests whose every horizon was an exact answer reused from earlier in the step.",
		func() float64 { return float64(p.hits.Load()) })
	reg.CounterFunc("smiler_forecast_cache_misses_total",
		"Forecast requests that ran a kNN search + model fit, or failed.",
		func() float64 { return float64(p.misses.Load()) })
}
