package cluster_test

// Dynamic-membership tests: versioned cluster map, lowest-id-alive
// election, join with resumable rebalancing, decommission with drain,
// and crash-during-rebalance recovery. Everything runs in-process on
// real listeners with fast probe/rebalance intervals.

import (
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"smiler"
	"smiler/internal/cluster"
	"smiler/internal/fault"
	"smiler/internal/server"
)

// fastRebalance shrinks rebalance batches and pacing so tests can
// observe (and interrupt) a rebalance mid-flight.
func fastRebalance(cfg *cluster.Config) {
	cfg.RebalanceBatch = 1
	cfg.RebalanceInterval = 100 * time.Millisecond
}

// hasNodeEvent reports whether the node's flight recorder holds an
// event of the given type.
func hasNodeEvent(tn *testNode, typ string) bool {
	for _, ev := range tn.sys.Events().Since(0, 0) {
		if ev.Type == typ {
			return true
		}
	}
	return false
}

// registerSensors adds sensors with per-sensor seeded histories and
// returns the histories for reference replays.
func registerSensors(t *testing.T, cl *server.Client, sensors []string, n int) map[string][]float64 {
	t.Helper()
	hist := make(map[string][]float64, len(sensors))
	for i, s := range sensors {
		h := seasonal(rand.New(rand.NewSource(int64(100+i))), n)
		hist[s] = h
		if err := cl.AddSensor(s, h); err != nil {
			t.Fatalf("add %s: %v", s, err)
		}
	}
	return hist
}

func sensorNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("ms-%d", i)
	}
	return out
}

// referenceSystem replays the same histories into a single standalone
// system — the oracle the cluster's forecasts must match bit for bit.
func referenceSystem(t *testing.T, hist map[string][]float64) *smiler.System {
	t.Helper()
	ref, err := smiler.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })
	for s, h := range hist {
		if err := ref.AddSensor(s, h); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

// assertForecastsMatchRef compares every sensor's forecast, fetched
// through the cluster via cl, against the reference system.
func assertForecastsMatchRef(t *testing.T, cl *server.Client, ref *smiler.System, sensors []string) {
	t.Helper()
	for _, s := range sensors {
		want, err := ref.Predict(s, 1)
		if err != nil {
			t.Fatalf("reference predict %s: %v", s, err)
		}
		got, err := cl.Forecast(s, 1)
		if err != nil {
			t.Fatalf("cluster forecast %s: %v", s, err)
		}
		if got.Degraded {
			t.Fatalf("forecast %s degraded after convergence: %+v", s, got)
		}
		if got.Mean != want.Mean || got.Variance != want.Variance {
			t.Fatalf("forecast %s = (%v, %v), reference (%v, %v)",
				s, got.Mean, got.Variance, want.Mean, want.Variance)
		}
	}
}

// TestClusterMapSeedAgreement: every node derives the identical signed
// epoch-1 map from the shared static configuration and elects the
// lowest id as primary — no coordination at boot.
func TestClusterMapSeedAgreement(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	var first cluster.ClusterMapResponse
	for i, tn := range nodes {
		var m cluster.ClusterMapResponse
		getJSON(t, tn.ts.URL+"/cluster/map", &m)
		if m.Epoch != 1 {
			t.Fatalf("%s: seed epoch = %d, want 1", tn.id, m.Epoch)
		}
		if m.Primary != "n1" {
			t.Fatalf("%s: seed primary = %q, want n1", tn.id, m.Primary)
		}
		if len(m.Members) != 3 {
			t.Fatalf("%s: %d members, want 3", tn.id, len(m.Members))
		}
		for _, mem := range m.Members {
			if mem.State != cluster.StateActive {
				t.Fatalf("%s: member %s state %q, want active", tn.id, mem.ID, mem.State)
			}
		}
		if i == 0 {
			first = m
		} else if m.Sig != first.Sig {
			t.Fatalf("%s: map sig %q differs from n1's %q", tn.id, m.Sig, first.Sig)
		}
	}
	waitFor(t, 5*time.Second, "all nodes to elect n1", func() bool {
		for _, tn := range nodes {
			var m cluster.ClusterMapResponse
			if tryGetJSON(tn.ts.URL+"/cluster/map", &m) != nil || m.ElectedPrimary != "n1" {
				return false
			}
		}
		return true
	})
}

// TestClusterJoinRebalance: a fourth node joins a loaded 3-node
// cluster; only sensors whose ring placement changed move, the epoch
// advances, and forecasts stay bit-identical to a single-node
// reference.
func TestClusterJoinRebalance(t *testing.T) {
	nodes := newTestCluster(t, 3, func(cfg *cluster.Config) {
		cfg.RebalanceInterval = 30 * time.Millisecond
	})
	sensors := sensorNames(16)
	cl, err := server.NewClient(nodes[0].ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	hist := registerSensors(t, cl, sensors, 320)
	drainAll(t, nodes)
	ref := referenceSystem(t, hist)

	n4 := joinNode(t, "n4", nodes[1], func(cfg *cluster.Config) {
		cfg.RebalanceInterval = 30 * time.Millisecond
	})
	all := append(append([]*testNode{}, nodes...), n4)
	waitConverged(t, 30*time.Second, all)

	var m cluster.ClusterMapResponse
	getJSON(t, n4.ts.URL+"/cluster/map", &m)
	if m.Epoch < 3 { // join epoch + finalize epoch on top of the seed
		t.Fatalf("post-join epoch = %d, want >= 3", m.Epoch)
	}
	owned := 0
	for _, s := range sensors {
		var route cluster.SensorRoute
		getJSON(t, n4.ts.URL+"/cluster/ring?sensor="+s, &route)
		if route.Owner == "n4" {
			owned++
			if !n4.sys.HasSensor(s) {
				t.Fatalf("n4 owns %s but has no state for it", s)
			}
		}
	}
	if owned == 0 {
		t.Fatal("n4 owns no sensors after the rebalance")
	}
	assertOwnedOnce(t, all, sensors)
	n4cl, err := server.NewClient(n4.ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertForecastsMatchRef(t, n4cl, ref, sensors)
	if !hasNodeEvent(nodes[0], "member_join") {
		t.Fatal("primary recorded no member_join event")
	}
	if !hasNodeEvent(nodes[0], "epoch_change") {
		t.Fatal("primary recorded no epoch_change event")
	}
}

// TestClusterDecommissionDrain: decommissioning through a non-primary
// node proxies to the primary, the victim drains its sensors to the
// survivors, leaves the map, and its Drained channel fires.
func TestClusterDecommissionDrain(t *testing.T) {
	nodes := newTestCluster(t, 3, func(cfg *cluster.Config) {
		cfg.RebalanceInterval = 30 * time.Millisecond
	})
	sensors := sensorNames(12)
	cl, err := server.NewClient(nodes[0].ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	hist := registerSensors(t, cl, sensors, 320)
	drainAll(t, nodes)
	ref := referenceSystem(t, hist)

	// Poke n2, name n3: exercises the proxy-to-primary hop.
	resp, err := http.Post(nodes[1].ts.URL+"/cluster/decommission",
		"application/json", strings.NewReader(`{"node":"n3"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decommission answered HTTP %d", resp.StatusCode)
	}

	remaining := nodes[:2]
	waitConverged(t, 30*time.Second, remaining)
	select {
	case <-nodes[2].node.Drained():
	case <-time.After(10 * time.Second):
		t.Fatal("n3 Drained() never fired")
	}
	var m cluster.ClusterMapResponse
	getJSON(t, nodes[0].ts.URL+"/cluster/map", &m)
	if len(m.Members) != 2 {
		t.Fatalf("post-drain map has %d members, want 2", len(m.Members))
	}
	for _, mem := range m.Members {
		if mem.ID == "n3" {
			t.Fatal("n3 still in the map after decommission")
		}
	}
	assertOwnedOnce(t, remaining, sensors)
	assertForecastsMatchRef(t, cl, ref, sensors)
	if !hasNodeEvent(nodes[0], "member_drain") {
		t.Fatal("primary recorded no member_drain event")
	}
	if !hasNodeEvent(nodes[0], "member_leave") {
		t.Fatal("primary recorded no member_leave event")
	}
}

// TestClusterElectionFaults: when probes to the lowest-id member fail
// (injected partition), the survivors elect the next id; clearing the
// fault restores the original primary.
func TestClusterElectionFaults(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	in := fault.NewInjector(1)
	in.Set(fault.PointClusterProbe+":n1", fault.Rule{Kind: fault.KindError, After: 1})
	fault.Arm(in)
	t.Cleanup(fault.Disarm)

	waitFor(t, 10*time.Second, "n2 takeover on n2 and n3", func() bool {
		for _, tn := range nodes[1:] {
			var m cluster.ClusterMapResponse
			if tryGetJSON(tn.ts.URL+"/cluster/map", &m) != nil || m.ElectedPrimary != "n2" {
				return false
			}
		}
		return true
	})
	waitFor(t, 5*time.Second, "election_won on n2", func() bool {
		return hasNodeEvent(nodes[1], "election_won")
	})

	in.Clear(fault.PointClusterProbe + ":n1")
	waitFor(t, 10*time.Second, "primary back to n1", func() bool {
		for _, tn := range nodes {
			var m cluster.ClusterMapResponse
			if tryGetJSON(tn.ts.URL+"/cluster/map", &m) != nil || m.ElectedPrimary != "n1" {
				return false
			}
		}
		return true
	})
}

// TestClusterMapPushFault: a member that misses every map push still
// converges — peers gossip the new epoch on replication traffic and
// the stale member pulls the map itself.
func TestClusterMapPushFault(t *testing.T) {
	nodes := newTestCluster(t, 3, func(cfg *cluster.Config) {
		cfg.RebalanceInterval = 30 * time.Millisecond
	})
	in := fault.NewInjector(2)
	in.Set(fault.PointClusterMapPush+":n3", fault.Rule{Kind: fault.KindError, After: 1})
	fault.Arm(in)
	t.Cleanup(fault.Disarm)

	n4 := joinNode(t, "n4", nodes[0], func(cfg *cluster.Config) {
		cfg.RebalanceInterval = 30 * time.Millisecond
	})
	all := append(append([]*testNode{}, nodes...), n4)
	waitConverged(t, 30*time.Second, all)
	if in.Fired(fault.PointClusterMapPush+":n3") == 0 {
		t.Fatal("map-push fault never fired; the pull path was not exercised")
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

// waitMoved polls the node's rebalance status until at least min moves
// committed — the window where a crash interrupts a live rebalance.
func waitMoved(t *testing.T, tn *testNode, min int64) {
	t.Helper()
	waitFor(t, 20*time.Second, fmt.Sprintf("%s to move %d sensor(s)", tn.id, min), func() bool {
		var rb cluster.RebalanceStatus
		return tryGetJSON(tn.ts.URL+"/cluster/rebalance", &rb) == nil && rb.Moved >= min
	})
}

// TestClusterRebalanceSourceCrash: a migration source dies mid-
// rebalance; the primary parks its moves as blocked, the source
// restarts, and the rebalance resumes from committed state and
// converges with bit-identical forecasts.
func TestClusterRebalanceSourceCrash(t *testing.T) {
	nodes := newTestCluster(t, 3, fastRebalance)
	sensors := sensorNames(16)
	cl, err := server.NewClient(nodes[0].ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	hist := registerSensors(t, cl, sensors, 320)
	drainAll(t, nodes)
	ref := referenceSystem(t, hist)

	n4 := joinNode(t, "n4", nodes[1], fastRebalance)
	all := append(append([]*testNode{}, nodes...), n4)
	waitMoved(t, nodes[0], 1)

	// Crash a non-primary source while the plan is mid-flight.
	victim := nodes[2]
	victim.kill()
	waitFor(t, 10*time.Second, "primary to see "+victim.id+" down", func() bool {
		var hs struct {
			Peers []cluster.PeerHealth `json:"peers"`
		}
		if tryGetJSON(nodes[0].ts.URL+"/cluster/health", &hs) != nil {
			return false
		}
		for _, h := range hs.Peers {
			if h.Peer == victim.id {
				return !h.Up
			}
		}
		return false
	})
	victim.restart(t)

	waitConverged(t, 60*time.Second, all)
	assertOwnedOnce(t, all, sensors)
	n4cl, err := server.NewClient(n4.ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertForecastsMatchRef(t, n4cl, ref, sensors)
}

// TestClusterRebalancePrimaryCrash: the primary dies mid-rebalance;
// the next id is elected and keeps migrating sensors it can reach,
// and once the old primary returns the cluster converges.
func TestClusterRebalancePrimaryCrash(t *testing.T) {
	nodes := newTestCluster(t, 3, fastRebalance)
	sensors := sensorNames(16)
	cl, err := server.NewClient(nodes[1].ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	hist := registerSensors(t, cl, sensors, 320)
	drainAll(t, nodes)
	ref := referenceSystem(t, hist)

	n4 := joinNode(t, "n4", nodes[1], fastRebalance)
	all := append(append([]*testNode{}, nodes...), n4)
	waitMoved(t, nodes[0], 1)

	nodes[0].kill() // the primary, mid-rebalance
	waitFor(t, 10*time.Second, "n2 to take over as primary", func() bool {
		var m cluster.ClusterMapResponse
		return tryGetJSON(nodes[1].ts.URL+"/cluster/map", &m) == nil && m.ElectedPrimary == "n2"
	})
	// The new primary must resume the interrupted rebalance, not just
	// hold the title: its own move counter has to advance.
	waitMoved(t, nodes[1], 1)
	if !hasNodeEvent(nodes[1], "election_won") {
		t.Fatal("n2 recorded no election_won event")
	}

	nodes[0].restart(t)
	waitConverged(t, 60*time.Second, all)
	assertOwnedOnce(t, all, sensors)
	n4cl, err := server.NewClient(n4.ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertForecastsMatchRef(t, n4cl, ref, sensors)
}

// TestClusterMembershipLifecycle is the full acceptance run: a 3-node
// cluster under live observe/forecast load admits a fourth member via
// batched migration, loses its primary mid-rebalance (a successor
// takes over and keeps moving), gets the primary back, decommissions
// an original member, and ends with every sensor owned exactly once
// and forecasts bit-identical to a single-node reference fed the same
// stream. Forecasts must never error at any point.
//
// Observations are delivered at least once, not exactly once: the
// idempotency cache that dedupes a retried observe lives on the node
// that executed it, so a retry whose first attempt died in transport
// after applying, and whose sensor migrated in between, runs again on
// the new owner. Every attempt's idempotency key is recorded on every
// wire (observeLog); a sensor may end longer than the fed stream only
// by retries the log shows crossing nodes, never by a key that ran
// twice on one node, and such a sensor is left out of the bit-identity
// check.
//
// Two sensor populations share the cluster. "Oracle" sensors are only
// observed during the churn and forecast once at the end, against the
// reference. "Traffic" sensors take a forecast on every round — they
// prove forecasts never error through joins, crashes, and drains, but
// are excluded from the bit-identical check: a prediction enqueues
// pending ensemble-reweight work that later observations consume, and
// the async ingestion pipeline makes the cluster's predict/observe
// interleaving impossible to replay exactly into the reference.
func TestClusterMembershipLifecycle(t *testing.T) {
	var wire observeLog
	tapped := func(cfg *cluster.Config) {
		fastRebalance(cfg)
		cfg.HTTPClient = wire.client(cfg.Self, cfg.HTTPClient.Timeout)
	}
	nodes := newTestCluster(t, 3, tapped)
	// 16 oracle sensors: with this deterministic ring, two of them move
	// to n4 on join, so a primary killed after the first committed move
	// always leaves work for its successor.
	sensors := sensorNames(16)
	traffic := []string{"tr-0", "tr-1", "tr-2", "tr-3"}
	cl, err := server.NewClient(nodes[1].ts.URL, wire.client("client", 0)) // n2: survives every phase
	if err != nil {
		t.Fatal(err)
	}
	cl.SetRetryPolicy(server.RetryPolicy{
		MaxAttempts: 12, BaseDelay: 20 * time.Millisecond, MaxDelay: 300 * time.Millisecond,
	})
	const histLen, liveLen = 240, 40
	live := make(map[string][]float64, len(sensors)+len(traffic))
	hist := make(map[string][]float64, len(sensors))
	for i, s := range append(append([]string{}, sensors...), traffic...) {
		full := seasonal(rand.New(rand.NewSource(int64(500+i))), histLen+liveLen)
		if err := cl.AddSensor(s, full[:histLen]); err != nil {
			t.Fatalf("add %s: %v", s, err)
		}
		live[s] = full[histLen:]
		if i < len(sensors) {
			hist[s] = full[:histLen]
		}
	}
	ref := referenceSystem(t, hist)

	feedRound := func(round int) {
		t.Helper()
		for _, s := range sensors {
			if err := cl.Observe(s, live[s][round]); err != nil {
				t.Fatalf("observe %s round %d: %v", s, round, err)
			}
			if err := ref.Observe(s, live[s][round]); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range traffic {
			if err := cl.Observe(s, live[s][round]); err != nil {
				t.Fatalf("observe %s round %d: %v", s, round, err)
			}
		}
	}
	forecastRound := func(phase string) {
		t.Helper()
		for _, s := range traffic {
			if _, err := cl.Forecast(s, 1); err != nil {
				t.Fatalf("forecast %s during %s: %v", s, phase, err)
			}
		}
	}

	// Phase 1: steady state under load.
	for round := 0; round < 10; round++ {
		feedRound(round)
		forecastRound("steady state")
	}

	// Phase 2: a fourth node joins; the primary starts migrating.
	n4 := joinNode(t, "n4", nodes[1], tapped)
	all := append(append([]*testNode{}, nodes...), n4)
	waitMoved(t, nodes[0], 1)

	// Phase 3: the primary dies mid-rebalance. Reads must keep flowing
	// (promoted replicas); the successor must keep migrating.
	nodes[0].kill()
	waitFor(t, 10*time.Second, "n2 to take over as primary", func() bool {
		var m cluster.ClusterMapResponse
		return tryGetJSON(nodes[1].ts.URL+"/cluster/map", &m) == nil && m.ElectedPrimary == "n2"
	})
	forecastRound("primary outage")
	waitMoved(t, nodes[1], 1)
	forecastRound("successor rebalancing")

	// Phase 4: the old primary returns and reclaims the title; writes
	// to its sensors unblock.
	nodes[0].restart(t)
	waitFor(t, 10*time.Second, "n1 to reclaim primaryship", func() bool {
		var m cluster.ClusterMapResponse
		return tryGetJSON(nodes[1].ts.URL+"/cluster/map", &m) == nil && m.ElectedPrimary == "n1"
	})
	for round := 10; round < 25; round++ {
		feedRound(round)
		forecastRound("post-restart")
	}
	waitConverged(t, 60*time.Second, all)

	// Phase 5: decommission n3 through its own endpoint (empty body =
	// self; proxied to the primary) under continued load.
	resp, err := http.Post(nodes[2].ts.URL+"/cluster/decommission",
		"application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decommission answered HTTP %d", resp.StatusCode)
	}
	for round := 25; round < liveLen; round++ {
		feedRound(round)
		forecastRound("decommission drain")
	}
	select {
	case <-nodes[2].node.Drained():
	case <-time.After(30 * time.Second):
		t.Fatal("n3 Drained() never fired")
	}
	remaining := []*testNode{nodes[0], nodes[1], n4}
	waitConverged(t, 60*time.Second, remaining)

	// Final state: exactly-once ownership, no samples lost anywhere,
	// and oracle forecasts bit-identical to the reference.
	drainAll(t, remaining)
	everySensor := append(append([]string{}, sensors...), traffic...)
	assertOwnedOnce(t, remaining, everySensor)
	idOf := make(map[string]string, len(all))
	for _, tn := range all {
		idOf[tn.addr] = tn.id
	}
	var exact []string // oracle sensors fed exactly the reference's sequence
	for i, s := range everySensor {
		owner := ownerOf(t, remaining, s)
		got, _ := owner.sys.HistoryLen(s)
		want, rerun := histLen+liveLen, wire.reexecutions(t, s, idOf)
		if got < want || got > want+rerun {
			t.Errorf("sensor %s on owner %s: history %d, want %d (+%d for retries that crossed a cutover)",
				s, owner.id, got, want, rerun)
			wire.dump(t, s)
		}
		if got == want && i < len(sensors) {
			exact = append(exact, s)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	assertForecastsMatchRef(t, cl, ref, exact)
	if !hasNodeEvent(nodes[1], "member_join") || !hasNodeEvent(nodes[1], "member_leave") {
		t.Fatal("n2's flight recorder is missing membership events")
	}
}
