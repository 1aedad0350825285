package cluster

import "smiler/internal/obs"

// metrics bundles the cluster's instruments. Everything lives in the
// system's shared registry, so GET /metrics on any node exposes its
// cluster behaviour next to the prediction and ingest metrics. All
// fields tolerate a nil registry (they become no-ops).
type metrics struct {
	forwards      func(target string) *obs.Counter
	forwardErrs   *obs.Counter
	forwardSec    *obs.Histogram
	replFrames    *obs.Counter // frames shipped to followers
	replApplied   *obs.Counter // frames applied from a primary
	replDupes     *obs.Counter // duplicate frames dropped (idempotent redelivery)
	replDropped   *obs.Counter // frames shed on a full peer queue
	replErrs      *obs.Counter // failed replication posts
	resyncs       *obs.Counter // snapshot pushes triggered by gaps
	failovers     *obs.Counter // peer up→down transitions
	promotedServe *obs.Counter // degraded forecasts served as a promoted replica
	staleRejects  *obs.Counter // promoted reads refused: staleness bound exceeded
	writeRejects  *obs.Counter // mutations refused while promoted
}

func newMetrics(reg *obs.Registry, node *Node) *metrics {
	m := &metrics{}
	m.forwards = func(target string) *obs.Counter {
		return reg.Counter("smiler_cluster_forwards_total",
			"Requests forwarded to their owning node.", obs.L("target", target))
	}
	m.forwardErrs = reg.Counter("smiler_cluster_forward_errors_total",
		"Forwarded requests that failed in transit.")
	m.forwardSec = reg.Histogram("smiler_cluster_forward_seconds",
		"Forwarding round-trip latency.", nil)
	m.replFrames = reg.Counter("smiler_cluster_replicated_frames_total",
		"WAL frames shipped to follower nodes.")
	m.replApplied = reg.Counter("smiler_cluster_applied_frames_total",
		"Replicated WAL frames applied from a primary.")
	m.replDupes = reg.Counter("smiler_cluster_duplicate_frames_total",
		"Replicated frames dropped as duplicates.")
	m.replDropped = reg.Counter("smiler_cluster_replication_dropped_total",
		"Replication frames shed because a peer queue was full.")
	m.replErrs = reg.Counter("smiler_cluster_replication_errors_total",
		"Replication batches that failed to reach a peer.")
	m.resyncs = reg.Counter("smiler_cluster_resyncs_total",
		"Snapshot pushes triggered by sequence gaps or unknown sensors.")
	m.failovers = reg.Counter("smiler_cluster_failovers_total",
		"Peer transitions from up to down (after consecutive probe failures).")
	m.promotedServe = reg.Counter("smiler_cluster_promoted_serves_total",
		"Forecasts served as a promoted replica (Degraded: replica).")
	m.staleRejects = reg.Counter("smiler_cluster_stale_rejects_total",
		"Promoted reads refused because the staleness bound was exceeded.")
	m.writeRejects = reg.Counter("smiler_cluster_write_rejects_total",
		"Mutations refused while serving as a promoted replica.")
	// Replication lag: frames queued toward peers but not yet shipped.
	reg.GaugeFunc("smiler_cluster_replication_lag_frames",
		"Frames buffered for followers, not yet shipped.",
		func() float64 { return float64(node.repl.queuedFrames()) })
	for _, p := range node.view.peers {
		reg.GaugeFunc("smiler_cluster_peer_up",
			"1 when the peer's readiness probe passes, 0 when it is down.",
			func() float64 {
				if node.health.isUp(p) {
					return 1
				}
				return 0
			}, obs.L("peer", p))
	}
	return m
}
