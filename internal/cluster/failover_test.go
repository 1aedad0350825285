package cluster_test

import (
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"smiler/internal/server"
)

// TestClusterFailover is the headline scenario: the owner dies
// mid-stream, and within the probe window its replica serves forecasts
// tagged Degraded "replica" while refusing writes.
func TestClusterFailover(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	const sensor = "failover-sensor"
	hist := seasonal(rand.New(rand.NewSource(10)), 440)

	owner := ownerOf(t, nodes, sensor)
	cl, err := server.NewClient(owner.ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.AddSensor(sensor, hist[:400]); err != nil {
		t.Fatal(err)
	}
	var route struct {
		Preference []string `json:"preference"`
	}
	getJSON(t, owner.ts.URL+"/cluster/ring?sensor="+sensor, &route)
	follower := byID(t, nodes, route.Preference[1])

	// Stream observations and let replication catch up mid-stream.
	if err := cl.ObserveBatch(sensor, hist[400:420]); err != nil {
		t.Fatal(err)
	}
	drainAll(t, nodes)
	waitFor(t, 5*time.Second, "replica to catch up before the crash", func() bool {
		got, _ := follower.sys.HistoryLen(sensor)
		return got == 420
	})

	// Kill the owner's listener: probes start failing.
	owner.ts.Close()

	// Within the probe window every survivor promotes the replica and
	// serves (degraded) forecasts for the sensor.
	var surviving []*testNode
	for _, tn := range nodes {
		if tn != owner {
			surviving = append(surviving, tn)
		}
	}
	for _, entry := range surviving {
		entryCl, err := server.NewClient(entry.ts.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		var f server.ForecastResponse
		waitFor(t, 5*time.Second, "degraded forecast via "+entry.id, func() bool {
			f, err = entryCl.Forecast(sensor, 1)
			return err == nil && f.Degraded
		})
		if f.DegradedReason != "replica" {
			t.Fatalf("degraded_reason = %q, want %q", f.DegradedReason, "replica")
		}
		if f.Mean == 0 && f.Variance == 0 {
			t.Fatalf("degraded forecast carries no prediction: %+v", f)
		}
		// The ladder route is the same handler behind the same hook:
		// every element is tagged.
		fs, err := entryCl.Forecasts(sensor, []int{1, 3})
		if err != nil || len(fs) != 2 {
			t.Fatalf("forecasts via %s: %d elements, err %v", entry.id, len(fs), err)
		}
		for _, f := range fs {
			if !f.Degraded || f.DegradedReason != "replica" {
				t.Fatalf("forecasts element not tagged replica: %+v", f)
			}
		}
	}

	// Writes must be refused while the primary is gone — a promoted
	// replica never accepts mutations, so the primary's return cannot
	// produce divergent histories.
	resp, err := http.Post(follower.ts.URL+"/sensors/"+sensor+"/observe",
		"application/json", strings.NewReader(`{"value": 50}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write during failover: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 during failover must carry Retry-After")
	}

	// The failure is visible on /metrics: failover and promoted-serve
	// counters moved, and the replication-lag gauge is exported.
	body := getMetrics(t, follower.ts.URL)
	for _, want := range []string{
		"smiler_cluster_failovers_total",
		"smiler_cluster_promoted_serves_total",
		"smiler_cluster_replication_lag_frames",
		"smiler_cluster_write_rejects_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics is missing %s", want)
		}
	}
	if !metricAtLeast(t, body, "smiler_cluster_failovers_total", 1) {
		t.Fatalf("failovers counter did not move:\n%s", body)
	}
	if !metricAtLeast(t, body, "smiler_cluster_promoted_serves_total", 1) {
		t.Fatalf("promoted-serve counter did not move:\n%s", body)
	}
}

// TestClusterSmoke drives the full lifecycle through one entry node:
// register, observe, forecast, inspect the ring, and verify the
// cluster counters are all exported. This is the test `make
// cluster-smoke` runs.
func TestClusterSmoke(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	rng := rand.New(rand.NewSource(11))
	entry := nodes[0]
	cl, err := server.NewClient(entry.ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}

	sensors := []string{"smoke-a", "smoke-b", "smoke-c", "smoke-d"}
	for _, s := range sensors {
		if err := cl.AddSensor(s, seasonal(rng, 400)); err != nil {
			t.Fatalf("add %s: %v", s, err)
		}
	}
	for i := 0; i < 20; i++ {
		for _, s := range sensors {
			if err := cl.Observe(s, 50+rng.NormFloat64()); err != nil {
				t.Fatalf("observe %s: %v", s, err)
			}
		}
	}
	drainAll(t, nodes)
	for _, s := range sensors {
		f, err := cl.Forecast(s, 1)
		if err != nil {
			t.Fatalf("forecast %s: %v", s, err)
		}
		if f.Degraded {
			t.Fatalf("healthy cluster served degraded forecast for %s: %+v", s, f)
		}
		own := ownerOf(t, nodes, s)
		if got, _ := own.sys.HistoryLen(s); got != 420 {
			t.Fatalf("sensor %s history on owner %s = %d, want 420", s, own.id, got)
		}
	}

	// Every node exports the cluster metric family.
	for _, tn := range nodes {
		body := getMetrics(t, tn.ts.URL)
		for _, want := range []string{
			"smiler_cluster_replication_lag_frames",
			"smiler_cluster_peer_up",
			"smiler_cluster_replicated_frames_total",
		} {
			if !strings.Contains(body, want) {
				t.Fatalf("node %s /metrics missing %s", tn.id, want)
			}
		}
	}
}

func getMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// metricAtLeast reports whether any sample line of the named metric has
// a value >= min.
func metricAtLeast(t *testing.T, body, name string, min float64) bool {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil && v >= min {
			return true
		}
	}
	return false
}
