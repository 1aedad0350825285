package cluster_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"smiler"
	"smiler/internal/fault"
	"smiler/internal/server"
)

func jsonDecode(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }

// TestClusterForwarding: any node accepts any request; misrouted
// requests reach the owner and responses carry ownership hints.
func TestClusterForwarding(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	const sensor = "fwd-sensor"
	hist := seasonal(rand.New(rand.NewSource(1)), 420)

	owner := ownerOf(t, nodes, sensor)
	entry := nonOwnerOf(t, nodes, sensor)

	// Register through a non-owner: the request must land on the owner.
	cl, err := server.NewClient(entry.ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.AddSensor(sensor, hist[:400]); err != nil {
		t.Fatal(err)
	}
	if !owner.sys.HasSensor(sensor) {
		t.Fatal("registration did not reach the owner")
	}

	// Observe through the non-owner; the value must apply on the owner.
	if err := cl.Observe(sensor, hist[400]); err != nil {
		t.Fatal(err)
	}
	drainAll(t, nodes)
	if got, _ := owner.sys.HistoryLen(sensor); got != 401 {
		t.Fatalf("owner history = %d, want 401", got)
	}

	// Forecast through the non-owner equals the owner's own answer.
	viaEntry, err := cl.Forecast(sensor, 1)
	if err != nil {
		t.Fatal(err)
	}
	ownerCl, err := server.NewClient(owner.ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	viaOwner, err := ownerCl.Forecast(sensor, 1)
	if err != nil {
		t.Fatal(err)
	}
	if viaEntry.Mean != viaOwner.Mean || viaEntry.Variance != viaOwner.Variance {
		t.Fatalf("forwarded forecast %+v != owner forecast %+v", viaEntry, viaOwner)
	}
	if viaEntry.Degraded {
		t.Fatalf("healthy-owner forecast must not be degraded: %+v", viaEntry)
	}

	// The response must carry ownership hints for ring-aware clients.
	resp, err := http.Get(entry.ts.URL + "/sensors/" + sensor + "/forecast?h=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(server.OwnerURLHeader); got != owner.ts.URL {
		t.Fatalf("owner URL hint = %q, want %q", got, owner.ts.URL)
	}
}

// TestClusterReplication: the owner streams applied mutations to its
// follower, which converges to the same history.
func TestClusterReplication(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	const sensor = "repl-sensor"
	hist := seasonal(rand.New(rand.NewSource(2)), 440)

	owner := ownerOf(t, nodes, sensor)
	cl, err := server.NewClient(owner.ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.AddSensor(sensor, hist[:400]); err != nil {
		t.Fatal(err)
	}

	// Find the follower: the replica target is the next preference
	// entry after the owner.
	var route struct {
		Preference []string `json:"preference"`
	}
	getJSON(t, owner.ts.URL+"/cluster/ring?sensor="+sensor, &route)
	follower := byID(t, nodes, route.Preference[1])

	waitFor(t, 5*time.Second, "registration to replicate", func() bool {
		return follower.sys.HasSensor(sensor)
	})
	if err := cl.ObserveBatch(sensor, hist[400:420]); err != nil {
		t.Fatal(err)
	}
	drainAll(t, nodes)
	waitFor(t, 5*time.Second, "observations to replicate", func() bool {
		got, _ := follower.sys.HistoryLen(sensor)
		return got == 420
	})

	// The follower's state is the owner's state: same forecast.
	want, err := owner.sys.Predict(sensor, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := follower.sys.Predict(sensor, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want.Mean != got.Mean || want.Variance != got.Variance {
		t.Fatalf("follower forecast %+v != owner forecast %+v", got, want)
	}
}

// TestClusterGapResync: a follower that lost its copy heals through the
// snapshot path, bit-exactly. We simulate the loss by removing the
// sensor on the follower; the next frame is then unanswerable and must
// trigger a resync that restores the full state — after which the
// follower forecasts the same bits as the owner and as a standalone
// system fed the same sequence.
func TestClusterGapResync(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	const sensor = "gap-sensor"
	hist := seasonal(rand.New(rand.NewSource(3)), 440)

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
	waitFor(t, 5*time.Second, "registration to replicate", func() bool {
		return follower.sys.HasSensor(sensor)
	})

	// Blow away the follower's copy out-of-band: the next replicated
	// observation cannot apply and must force a snapshot resync.
	if err := follower.sys.RemoveSensor(sensor); err != nil {
		t.Fatal(err)
	}
	if err := cl.ObserveBatch(sensor, hist[400:410]); err != nil {
		t.Fatal(err)
	}
	drainAll(t, nodes)
	waitFor(t, 5*time.Second, "snapshot resync to restore the follower", func() bool {
		got, _ := follower.sys.HistoryLen(sensor)
		return got == 410
	})

	ref, err := smiler.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.AddSensor(sensor, hist[:400]); err != nil {
		t.Fatal(err)
	}
	for _, v := range hist[400:410] {
		if err := ref.Observe(sensor, v); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.Predict(sensor, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range []*testNode{follower, owner} {
		got, err := tn.sys.Predict(sensor, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Mean) != math.Float64bits(want.Mean) ||
			math.Float64bits(got.Variance) != math.Float64bits(want.Variance) {
			t.Fatalf("%s forecast (%.17g, %.17g) != standalone (%.17g, %.17g)",
				tn.id, got.Mean, got.Variance, want.Mean, want.Variance)
		}
	}
}

// TestClusterIdempotentRetryThroughForwarding: the same keyed mutation
// sent twice through a non-owner applies exactly once on the owner —
// the forwarder propagates the key and the owner's idempotency layer
// dedupes.
func TestClusterIdempotentRetryThroughForwarding(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	const sensor = "idem-sensor"
	hist := seasonal(rand.New(rand.NewSource(4)), 420)

	owner := ownerOf(t, nodes, sensor)
	entry := nonOwnerOf(t, nodes, sensor)
	cl, err := server.NewClient(owner.ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.AddSensor(sensor, hist[:400]); err != nil {
		t.Fatal(err)
	}

	send := func() *http.Response {
		req, err := http.NewRequest(http.MethodPost,
			entry.ts.URL+"/sensors/"+sensor+"/observe",
			strings.NewReader(`{"value": 51.25}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(server.IdempotencyKeyHeader, "retry-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	first := send()
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first observe: HTTP %d", first.StatusCode)
	}
	second := send()
	if second.StatusCode != http.StatusOK {
		t.Fatalf("retried observe: HTTP %d", second.StatusCode)
	}
	if second.Header.Get(server.IdempotentReplayHeader) != "1" {
		t.Fatal("retry must be served from the idempotency cache")
	}
	drainAll(t, nodes)
	if got, _ := owner.sys.HistoryLen(sensor); got != 401 {
		t.Fatalf("owner history = %d, want 401 (duplicate must not double-apply)", got)
	}

}

// TestClusterBulkPartitioning: one bulk POST spanning sensors owned by
// different nodes is split, forwarded, and merged with the caller's
// original indices.
func TestClusterBulkPartitioning(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	rng := rand.New(rand.NewSource(5))

	// Find two sensors with different owners.
	sensors := []string{}
	owners := map[string]*testNode{}
	for i := 0; len(sensors) < 2 && i < 100; i++ {
		id := fmt.Sprintf("bulk-%d", i)
		own := ownerOf(t, nodes, id)
		if len(sensors) == 0 || owners[sensors[0]] != own {
			sensors = append(sensors, id)
			owners[id] = own
		}
	}
	if len(sensors) < 2 {
		t.Fatal("could not find sensors with distinct owners")
	}
	entry := nodes[0]
	for _, s := range sensors {
		cl, err := server.NewClient(entry.ts.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.AddSensor(s, seasonal(rng, 400)); err != nil {
			t.Fatal(err)
		}
	}

	body := `{"observations":[` +
		`{"id":"` + sensors[0] + `","value":50.5},` +
		`{"id":"` + sensors[1] + `","value":49.5},` +
		`{"id":"unknown-sensor","value":1}]}`
	resp, err := http.Post(entry.ts.URL+"/observations", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res struct {
		Accepted int `json:"accepted"`
		Failed   []struct {
			Index int    `json:"index"`
			ID    string `json:"id"`
		} `json:"failed"`
	}
	if err := jsonDecode(resp.Body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 2 {
		t.Fatalf("accepted = %d, want 2", res.Accepted)
	}
	if len(res.Failed) != 1 || res.Failed[0].Index != 2 || res.Failed[0].ID != "unknown-sensor" {
		t.Fatalf("failed = %+v, want the unknown sensor at original index 2", res.Failed)
	}
	drainAll(t, nodes)
	for _, s := range sensors {
		if got, _ := owners[s].sys.HistoryLen(s); got != 401 {
			t.Fatalf("sensor %s history on its owner = %d, want 401", s, got)
		}
	}
}

// TestClusterForwardFault: an injected forward failure surfaces as a
// retryable 5xx and the client's retry completes the request.
func TestClusterForwardFault(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	const sensor = "fwd-fault-sensor"
	hist := seasonal(rand.New(rand.NewSource(9)), 320)
	owner := ownerOf(t, nodes, sensor)
	ownerCl, err := server.NewClient(owner.ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ownerCl.AddSensor(sensor, hist); err != nil {
		t.Fatal(err)
	}
	entry := nonOwnerOf(t, nodes, sensor)
	cl, err := server.NewClient(entry.ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}

	in := fault.NewInjector(3)
	in.Set(fault.PointClusterForward, fault.Rule{Kind: fault.KindError, After: 1, Once: true})
	fault.Arm(in)
	t.Cleanup(fault.Disarm)

	fc, err := cl.Forecast(sensor, 1)
	if err != nil {
		t.Fatalf("forecast through faulted forward: %v", err)
	}
	if fc.Degraded {
		t.Fatalf("forecast degraded: %+v", fc)
	}
	if got := in.Fired(fault.PointClusterForward); got != 1 {
		t.Fatalf("forward fault fired %d times, want 1", got)
	}
}

// TestClusterTieredReplication runs the cluster harness with
// hot-sensor tiering enabled on every node: with a cap below the
// sensor count, registration and replication spill sensors cold, and
// forecasts — faulting cold sensors back in on owner and follower —
// stay bit-identical to a standalone untiered reference.
func TestClusterTieredReplication(t *testing.T) {
	tieredCfg := testConfig()
	tieredCfg.MaxHotSensors = 2
	nodes := newTestClusterSys(t, 3, tieredCfg, nil)

	ref, err := smiler.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	const sensors = 8
	rng := rand.New(rand.NewSource(12))
	cl, err := server.NewClient(nodes[0].ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	hists := make(map[string][]float64, sensors)
	for i := 0; i < sensors; i++ {
		id := fmt.Sprintf("tier-%d", i)
		hists[id] = seasonal(rng, 420)
		if err := cl.AddSensor(id, hists[id][:400]); err != nil {
			t.Fatal(err)
		}
		if err := ref.AddSensor(id, hists[id][:400]); err != nil {
			t.Fatal(err)
		}
	}
	for id, h := range hists {
		if err := cl.ObserveBatch(id, h[400:420]); err != nil {
			t.Fatal(err)
		}
		for _, v := range h[400:420] {
			if err := ref.Observe(id, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	drainAll(t, nodes)

	// Somewhere in the cluster the cap must have been hit.
	churned := false
	for _, tn := range nodes {
		if st := tn.sys.Tiering(); st.Evictions > 0 {
			churned = true
		}
	}
	if !churned {
		t.Fatal("8 sensors across 3 nodes at cap 2 must evict somewhere")
	}

	// Forecasts through the cluster (forwarded to the owner, faulting
	// cold sensors in) match the untiered reference bit for bit.
	for id := range hists {
		want, err := ref.Predict(id, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.Forecast(id, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got.Mean != want.Mean || got.Variance != want.Variance {
			t.Fatalf("%s: tiered cluster forecast (%v, %v) != reference (%v, %v)",
				id, got.Mean, got.Variance, want.Mean, want.Variance)
		}
	}
}
