package ingest

import (
	"context"
	"strings"
	"testing"
	"time"

	"smiler/internal/obs"
)

// TestRegisterMetricsExposition: the lazy bridge must surface the
// shard counters and forecast counters with live values.
func TestRegisterMetricsExposition(t *testing.T) {
	sys := newFakeSystem()
	sys.observeDelay = time.Millisecond // force measurable apply latency
	p, err := New(sys, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	reg := obs.NewRegistry()
	p.RegisterMetrics(reg)

	for i := 0; i < 10; i++ {
		if _, err := p.Observe("a", float64(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Observe("b", float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ForecastsCtx(context.Background(), "a", []int{1}); err != nil { // miss
		t.Fatal(err)
	}
	sys.reused.Store(true)
	if _, err := p.ForecastsCtx(context.Background(), "a", []int{1}); err != nil { // hit
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"smiler_ingest_shards 2",
		`smiler_ingest_processed_total{shard="0"} 10`,
		`smiler_ingest_processed_total{shard="1"} 10`,
		`smiler_ingest_apply_latency_seconds_total{shard="0"}`,
		"smiler_forecast_cache_hits_total 1",
		"smiler_forecast_cache_misses_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	for _, gone := range []string{"smiler_ingest_queue_capacity", "smiler_ingest_dropped_total",
		"smiler_ingest_queue_depth", "smiler_ingest_batches_total", "smiler_ingest_enqueued_total",
		"smiler_forecast_coalesced_waits_total", "smiler_forecast_cache_invalidations_total", "smiler_forecast_cache_size"} {
		if strings.Contains(out, gone) {
			t.Errorf("exposition still has %q", gone)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", out)
	}
	// 20 observations total across the two shards.
	st := p.Stats()
	if st.Totals.Processed != 20 {
		t.Fatalf("processed = %d, want 20", st.Totals.Processed)
	}
}

// TestRegisterMetricsNilRegistry: registering against a disabled
// system must be a no-op, not a panic.
func TestRegisterMetricsNilRegistry(t *testing.T) {
	p, err := New(newFakeSystem(), Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.RegisterMetrics(nil)
}

// TestPerShardLatencyPopulated: each shard that processed work must
// report its own AvgLatencyMicros, not just the aggregate row (the
// stat /pipeline/stats and the metrics bridge both derive from).
func TestPerShardLatencyPopulated(t *testing.T) {
	sys := newFakeSystem()
	sys.observeDelay = 2 * time.Millisecond
	p, err := New(sys, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Hit both shards: ids spread by FNV hash.
	ids := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, id := range ids {
		if _, err := p.Observe(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Totals.AvgLatencyMicros <= 0 {
		t.Fatalf("aggregate AvgLatencyMicros = %v, want > 0", st.Totals.AvgLatencyMicros)
	}
	for _, sh := range st.PerShard {
		if sh.Processed == 0 {
			continue
		}
		if sh.AvgLatencyMicros <= 0 {
			t.Errorf("shard %d processed %d but AvgLatencyMicros = %v",
				sh.Shard, sh.Processed, sh.AvgLatencyMicros)
		}
	}
}
