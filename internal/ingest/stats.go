package ingest

// ShardStats is a point-in-time snapshot of one shard's counters. The
// same shape doubles as the all-shard aggregate (with Shard = -1).
type ShardStats struct {
	// Shard is the shard index, or -1 for the aggregate row.
	Shard int `json:"shard"`
	// QueueDepth is always 0: an observation is applied before Observe
	// returns, so nothing waits in a queue. It stays in the reply for
	// existing clients.
	QueueDepth int `json:"queue_depth"`
	// Enqueued equals Processed. It stays in the reply for existing
	// clients.
	Enqueued uint64 `json:"enqueued"`
	// Processed counts observations that reached the system's apply,
	// applied or failed.
	Processed uint64 `json:"processed"`
	// Dropped is always 0: a busy shard makes Observe wait, it never
	// sheds. It stays in the reply for existing clients.
	Dropped uint64 `json:"dropped"`
	// Errors counts observations whose apply failed or panicked.
	Errors uint64 `json:"errors"`
	// AvgLatencyMicros is the mean call-to-applied latency (shard lock
	// wait, journal and apply) in microseconds (0 before any
	// observation).
	AvgLatencyMicros float64 `json:"avg_latency_us"`
	// JournalErrors counts observations whose write-ahead-log append
	// failed (the observation was not applied).
	JournalErrors uint64 `json:"journal_errors"`
	// Panics counts panics recovered while journaling or applying —
	// each one an errored observation instead of a dead process.
	Panics uint64 `json:"panics"`
}

// CoalesceStats counts forecast requests by how the sensor answered
// them.
type CoalesceStats struct {
	// CacheHits counts requests whose every horizon was a reused answer
	// (smiler.Forecast.Reused): an exact answer an earlier read computed
	// since the sensor's last observation.
	CacheHits uint64 `json:"cache_hits"`
	// Misses counts the other requests: those that ran a kNN search and
	// model fits for at least one horizon, and those that failed.
	Misses uint64 `json:"misses"`
	// Panics counts panics recovered inside forecasts — each one
	// surfaced as an error to its caller instead of a crashed process.
	Panics uint64 `json:"panics"`
}

// Stats is a point-in-time snapshot of the whole pipeline, served by
// GET /pipeline/stats.
type Stats struct {
	// Shards is the number of shards.
	Shards int `json:"shards"`
	// PerShard holds one row per shard.
	PerShard []ShardStats `json:"per_shard"`
	// Totals aggregates PerShard (Shard = -1).
	Totals ShardStats `json:"totals"`
	// Coalesce counts forecast requests.
	Coalesce CoalesceStats `json:"coalesce"`
}

// Stats assembles a consistent-enough snapshot of all counters. Each
// counter is read atomically; the snapshot as a whole is not a
// transaction (counters advance while it is taken).
func (p *Pipeline) Stats() Stats {
	st := Stats{
		Shards:   len(p.shards),
		PerShard: make([]ShardStats, len(p.shards)),
		Totals:   ShardStats{Shard: -1},
	}
	var totalLatencyNs int64
	for i, sh := range p.shards {
		s := sh.snapshot()
		st.PerShard[i] = s
		t := &st.Totals
		t.Enqueued += s.Enqueued
		t.Processed += s.Processed
		t.Errors += s.Errors
		t.JournalErrors += s.JournalErrors
		t.Panics += s.Panics
		totalLatencyNs += sh.latencyNs.Load()
	}
	if st.Totals.Processed > 0 {
		st.Totals.AvgLatencyMicros = float64(totalLatencyNs) / 1e3 / float64(st.Totals.Processed)
	}
	st.Coalesce = CoalesceStats{CacheHits: p.hits.Load(), Misses: p.misses.Load(), Panics: p.panics.Load()}
	return st
}
