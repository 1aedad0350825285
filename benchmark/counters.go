package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSample is the series of one /metrics scrape, keyed by the full
// series text (`name{label="v",...}`), summed over the nodes scraped.
type promSample map[string]float64

// parseProm reads Prometheus text exposition into acc, adding to
// series already present (so several nodes sum).
func parseProm(r io.Reader, acc promSample) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return fmt.Errorf("metrics: malformed value in %q", line)
		}
		acc[line[:i]] += v
	}
	return sc.Err()
}

// sum adds every series of the family whose label text contains all of
// the given fragments (e.g. `phase="search"`).
func (p promSample) sum(family string, labels ...string) float64 {
	var total float64
series:
	for k, v := range p {
		name, rest, _ := strings.Cut(k, "{")
		if name != family {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				continue series
			}
		}
		total += v
	}
	return total
}

// scrape reads /metrics from every node into one summed sample.
func (s *stack) scrape() (promSample, error) {
	acc := make(promSample)
	for _, n := range s.cl.nodes {
		resp, err := http.Get(n.url + "/metrics")
		if err != nil {
			return nil, err
		}
		err = parseProm(resp.Body, acc)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// ratio is a/b with 0 for an empty base, so a layer that did no work on
// a workload reports 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterMetrics turns the difference of two scrapes around the traced
// steady phase into the per-layer counts and in-situ means. observations,
// forecasts and requests are the client's own tallies for that phase.
func counterMetrics(before, after promSample, observations, forecasts, requests int, m map[string]float64) {
	d := func(family string, labels ...string) float64 {
		return after.sum(family, labels...) - before.sum(family, labels...)
	}
	obs, fc := float64(observations), float64(forecasts)
	processed := d("smiler_ingest_processed_total")
	m["ingest.avg_batch"] = ratio(processed, d("smiler_ingest_batches_total"))
	m["ingest.queue_wait_ms_mean"] = 1e3 * ratio(d("smiler_ingest_apply_latency_seconds_total"), processed)
	m["ingest.stale_hits"] = d("smiler_forecast_cache_hits_total")
	m["wal.fsyncs_per_kobs"] = 1e3 * ratio(d("smiler_wal_syncs_total"), obs)
	m["wal.bytes_per_obs"] = ratio(d("smiler_wal_bytes_total"), obs)
	m["tier.faults_per_kobs"] = 1e3 * ratio(d("smiler_sensor_faults_total"), obs)
	m["tier.evictions_per_kobs"] = 1e3 * ratio(d("smiler_sensor_evictions_total"), obs)
	m["index.pruned_ratio"] = ratio(d("smiler_knn_pruned_total"), d("smiler_knn_candidates_total"))
	m["index.verified_per_forecast"] = ratio(d("smiler_knn_unfiltered_total"), fc)
	m["gp.fits_per_forecast"] = ratio(d("smiler_gp_fits_total"), fc)
	m["gp.optimizer_evals_per_forecast"] = ratio(d("smiler_gp_optimizer_evals_total"), fc)
	m["cluster.forward_ratio"] = ratio(d("smiler_cluster_forwards_total"), float64(requests))
	m["cluster.forward_ms_mean"] = 1e3 * ratio(d("smiler_cluster_forward_seconds_sum"), d("smiler_cluster_forward_seconds_count"))
	m["cluster.replicated_frames_per_obs"] = ratio(d("smiler_cluster_replicated_frames_total"), obs)
	hits := d("smiler_memsys_hits_total")
	m["memsys.hit_ratio"] = ratio(hits, hits+d("smiler_memsys_misses_total"))
	m["obs.gc_cycles"] = d("smiler_runtime_gc_cycles_total")
	m["obs.gc_pause_ms_total"] = 1e3 * d("smiler_runtime_gc_pause_seconds_sum")
	phase := func(family, ph string) float64 {
		l := `phase="` + ph + `"`
		return ratio(d(family+"_sum", l), d(family+"_count", l))
	}
	m["core.search_ms_insitu"] = 1e3 * phase("smiler_predict_phase_seconds", "search")
	m["gp.cell_fit_ms_insitu"] = 1e3 * phase("smiler_predict_phase_seconds", "cell_fit")
	m["index.advance_us_insitu"] = 1e6 * phase("smiler_observe_phase_seconds", "advance")
}
