package smiler_test

import (
	"reflect"
	"slices"
	"testing"

	"smiler"
	"smiler/internal/cluster"
	"smiler/internal/ingest"
	"smiler/internal/server"
	"smiler/internal/wal"
)

// The option structs are pinned field by field. A knob earns its place
// with a measured ablation or an operational need: a change that adds
// one edits the list here, and the review asks which workload needs it.

func pinFields[T any](t *testing.T, want ...string) {
	t.Helper()
	var got []string
	typ := reflect.TypeFor[T]()
	for i := range typ.NumField() {
		got = append(got, typ.Field(i).Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%v fields (%d):\n%v\nwant (%d):\n%v", typ, len(got), got, len(want), want)
	}
}

// TestConfigSurface pins the System's options.
func TestConfigSurface(t *testing.T) {
	pinFields[smiler.Config](t,
		"Device", "EKV", "ELV", "Rho", "Omega", "Predictor", "Normalize",
		"MaxHistory", "DisableMetrics", "MaxHotSensors", "SpillDir",
		"PredictDeadline", "Fallback",
	)
}

// TestIngestConfigSurface pins the ingestion pipeline's options: the
// shard count and two hooks.
func TestIngestConfigSurface(t *testing.T) {
	pinFields[ingest.Config](t, "Shards", "Journal", "OnApplied")
}

// TestServerOptionsSurface pins the HTTP server's options. Every write
// is journaled through Pipeline's one hook; there is no second one for
// sensor registrations and removals.
func TestServerOptionsSurface(t *testing.T) {
	pinFields[server.Options](t, "Interval", "Pipeline", "Logger", "StartNotReady", "NodeID")
}

// TestWALOptionsSurface pins the write-ahead log's options. The
// interval policy's fsync period is fixed.
func TestWALOptionsSurface(t *testing.T) {
	pinFields[wal.Options](t, "SegmentBytes", "Policy")
}

// TestClusterConfigSurface pins a cluster node's options: the fixed
// membership, the replica count, the prober's three knobs, the shared
// secret and two plumbing hooks. Membership never changes after New.
func TestClusterConfigSurface(t *testing.T) {
	pinFields[cluster.Config](t,
		"Self", "Members", "Replicas", "ProbeInterval", "ProbeFailures",
		"MaxStaleness", "Secret", "HTTPClient", "Logger",
	)
}
