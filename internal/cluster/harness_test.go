package cluster_test

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"smiler"
	"smiler/internal/cluster"
	"smiler/internal/ingest"
	"smiler/internal/server"
)

// testNode is one in-process cluster member: a real system, a real
// server, a real listener.
type testNode struct {
	id   string
	sys  *smiler.System
	srv  *server.Server
	ts   *httptest.Server
	node *cluster.Node

	// addr and cfg are kept so kill/restart can bring the node back on
	// the same address with the same configuration.
	addr string
	cfg  cluster.Config
}

func testConfig() smiler.Config {
	cfg := smiler.DefaultConfig()
	cfg.Omega = 8
	cfg.ELV = []int{16, 24, 40}
	cfg.EKV = []int{4, 8}
	cfg.Predictor = smiler.PredictorAR
	return cfg
}

func seasonal(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 50 + 10*math.Sin(2*math.Pi*float64(i)/48) + rng.NormFloat64()*0.5
	}
	return out
}

// newTestCluster brings up size nodes with fast probes. mutate, when
// non-nil, adjusts each node's cluster config before it starts.
func newTestCluster(t *testing.T, size int, mutate func(*cluster.Config)) []*testNode {
	t.Helper()
	return newTestClusterSys(t, size, testConfig(), mutate)
}

// newTestClusterSys is newTestCluster with an explicit system config
// (e.g. hot-sensor tiering enabled).
func newTestClusterSys(t *testing.T, size int, sysCfg smiler.Config, mutate func(*cluster.Config)) []*testNode {
	t.Helper()
	nodes := make([]*testNode, size)
	members := make([]cluster.Member, size)
	for i := range nodes {
		id := fmt.Sprintf("n%d", i+1)
		sys, err := smiler.New(sysCfg)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.NewWithOptions(sys, server.Options{
			NodeID:   id,
			Pipeline: ingest.Config{Shards: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		nodes[i] = &testNode{id: id, sys: sys, srv: srv, ts: ts}
		members[i] = cluster.Member{ID: id, URL: ts.URL}
	}
	for _, tn := range nodes {
		cfg := cluster.Config{
			Self:          tn.id,
			Members:       members,
			Replicas:      1,
			ProbeInterval: 15 * time.Millisecond,
			ProbeFailures: 2,
			HTTPClient:    &http.Client{Timeout: 2 * time.Second},
		}
		if mutate != nil {
			mutate(&cfg)
		}
		node, err := cluster.New(tn.sys, tn.srv, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tn.node = node
		tn.cfg = cfg
		tn.addr = tn.ts.Listener.Addr().String()
	}
	t.Cleanup(func() {
		for _, tn := range nodes {
			tn.node.Close()
			tn.ts.Close()
			tn.srv.Close()
			tn.sys.Close()
		}
	})
	return nodes
}

// observeAttempt is one HTTP attempt of a keyed observe, as seen by
// whoever sent it: the test's client or a forwarding node.
type observeAttempt struct {
	at      time.Time
	from    string // "client" or the forwarding node's id
	to      string // host:port the attempt was sent to
	sensor  string
	key     string
	status  int    // 0 = transport error
	served  string // X-Smiler-Owner on the answer: the node that executed it
	replay  bool   // answered from an idempotency cache
	failure string
}

// observeLog records every attempt of every keyed single-sensor
// observe crossing a wire it is installed on, so a test can tell a
// retry that re-executed from an observation applied twice.
type observeLog struct {
	mu       sync.Mutex
	attempts []observeAttempt
}

type observeTap struct {
	log  *observeLog
	from string
}

// client returns an HTTP client whose observes are logged as sent by
// from.
func (l *observeLog) client(from string, timeout time.Duration) *http.Client {
	return &http.Client{Timeout: timeout, Transport: observeTap{log: l, from: from}}
}

func (t observeTap) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	key := req.Header.Get(server.IdempotencyKeyHeader)
	rest, isSensor := strings.CutPrefix(req.URL.EscapedPath(), "/sensors/")
	sensor, isObserve := strings.CutSuffix(rest, "/observe")
	if key == "" || !isSensor || !isObserve || req.Method != http.MethodPost {
		return resp, err
	}
	a := observeAttempt{at: time.Now(), from: t.from, to: req.URL.Host, sensor: sensor, key: key}
	if err != nil {
		a.failure = err.Error()
	} else {
		a.status = resp.StatusCode
		a.served = resp.Header.Get("X-Smiler-Owner")
		a.replay = resp.Header.Get(server.IdempotentReplayHeader) != ""
	}
	t.log.mu.Lock()
	t.log.attempts = append(t.log.attempts, a)
	t.log.mu.Unlock()
	return resp, err
}

// reexecutions reports how many of the sensor's observes may have run
// more than once, and fails the test outright if one provably ran
// twice on the same node. An execution is a 200 that was not an
// idempotency replay, counted at the last hop (the attempt sent to the
// very node that served it, so a forwarded execution is not counted
// once per observer); an attempt that died in transport may have
// executed unseen. idOf maps listener addresses to node ids.
//
// The idempotency cache is per node, so the contract is at most once
// per key per node; a retry that follows its sensor across a migration
// cutover may run again on the new owner (docs/CLUSTER.md, Forwarding).
func (l *observeLog) reexecutions(t *testing.T, sensor string, idOf map[string]string) int {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	ran := make(map[string]map[string]int) // key -> executing node -> times
	unseen := make(map[string]int)         // key -> attempts lost in transport
	for _, a := range l.attempts {
		switch {
		case a.sensor != sensor:
		case a.status == 0:
			unseen[a.key]++
		case a.status == http.StatusOK && !a.replay && idOf[a.to] == a.served:
			if ran[a.key] == nil {
				ran[a.key] = make(map[string]int)
			}
			ran[a.key][a.served]++
		}
	}
	extra := 0
	for key, nodes := range ran {
		for node, times := range nodes {
			if times > 1 {
				t.Errorf("sensor %s: key %s executed %d times on %s — the idempotency cache let a retry through", sensor, key, times, node)
			}
		}
		extra += len(nodes) + unseen[key] - 1
	}
	return extra
}

// dump logs the sensor's attempts in send order.
func (l *observeLog) dump(t *testing.T, sensor string) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, a := range l.attempts {
		if a.sensor == sensor {
			t.Logf("  %s %s->%s key=%s status=%d served=%s replay=%v %s",
				a.at.Format("15:04:05.000"), a.from, a.to, a.key, a.status, a.served, a.replay, a.failure)
		}
	}
}

// byID finds a node by member id.
func byID(t *testing.T, nodes []*testNode, id string) *testNode {
	t.Helper()
	for _, tn := range nodes {
		if tn.id == id {
			return tn
		}
	}
	t.Fatalf("no node %q", id)
	return nil
}

// ownerOf asks the cluster who owns a sensor (via the first node).
func ownerOf(t *testing.T, nodes []*testNode, sensor string) *testNode {
	t.Helper()
	var route cluster.SensorRoute
	getJSON(t, nodes[0].ts.URL+"/cluster/ring?sensor="+sensor, &route)
	return byID(t, nodes, route.Owner)
}

// nonOwnerOf returns some live node that does not own the sensor.
func nonOwnerOf(t *testing.T, nodes []*testNode, sensor string) *testNode {
	t.Helper()
	owner := ownerOf(t, nodes, sensor)
	for _, tn := range nodes {
		if tn != owner {
			return tn
		}
	}
	t.Fatal("no non-owner node")
	return nil
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := jsonDecode(resp.Body, out); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// drainAll flushes every node's ingestion pipeline.
func drainAll(t *testing.T, nodes []*testNode) {
	t.Helper()
	for _, tn := range nodes {
		if err := tn.srv.Pipeline().Drain(); err != nil {
			t.Fatal(err)
		}
	}
}

// kill simulates a node crash: the cluster layer stops and the
// listener drops, but the system and server (the "disk image") stay so
// restart can bring the node back.
func (tn *testNode) kill() {
	tn.node.Close()
	tn.ts.CloseClientConnections()
	tn.ts.Close()
}

// restart brings a killed node back on its original address with its
// original configuration — the seed map it derives at boot is stale,
// and it must learn the current epoch from its peers.
func (tn *testNode) restart(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", tn.addr)
	if err != nil {
		t.Fatalf("relisten %s: %v", tn.addr, err)
	}
	ts := &httptest.Server{Listener: ln, Config: &http.Server{Handler: tn.srv}}
	ts.Start()
	tn.ts = ts
	node, err := cluster.New(tn.sys, tn.srv, tn.cfg)
	if err != nil {
		t.Fatalf("restart %s: %v", tn.id, err)
	}
	tn.node = node
}

// joinNode boots a brand-new member whose seed list names only itself
// and points it at seed's /cluster/join. The caller appends the result
// to its node slice; cleanup is registered here.
func joinNode(t *testing.T, id string, seed *testNode, mutate func(*cluster.Config)) *testNode {
	t.Helper()
	sys, err := smiler.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewWithOptions(sys, server.Options{
		NodeID:   id,
		Pipeline: ingest.Config{Shards: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	cfg := cluster.Config{
		Self:          id,
		Members:       []cluster.Member{{ID: id, URL: ts.URL}},
		Replicas:      1,
		ProbeInterval: 15 * time.Millisecond,
		ProbeFailures: 2,
		HTTPClient:    &http.Client{Timeout: 2 * time.Second},
		JoinURL:       seed.ts.URL,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	node, err := cluster.New(sys, srv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tn := &testNode{id: id, sys: sys, srv: srv, ts: ts, node: node,
		addr: ts.Listener.Addr().String(), cfg: cfg}
	t.Cleanup(func() {
		tn.node.Close()
		tn.ts.Close()
		tn.srv.Close()
		tn.sys.Close()
	})
	return tn
}

// tryGetJSON is getJSON without the fatality: polling helpers use it
// against nodes that may be down or mid-restart.
func tryGetJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return jsonDecode(resp.Body, out)
}

// waitConverged waits until every listed node reports the same cluster
// map, every member of that map is active, and no rebalance work is
// pending anywhere — the cluster is done reshaping itself.
func waitConverged(t *testing.T, d time.Duration, nodes []*testNode) {
	t.Helper()
	check := func() (bool, string) {
		var epoch uint64
		for i, tn := range nodes {
			var m cluster.ClusterMapResponse
			if err := tryGetJSON(tn.ts.URL+"/cluster/map", &m); err != nil {
				return false, fmt.Sprintf("%s: map unreachable: %v", tn.id, err)
			}
			if i == 0 {
				epoch = m.Epoch
			} else if m.Epoch != epoch {
				return false, fmt.Sprintf("%s at epoch %d, first node at %d", tn.id, m.Epoch, epoch)
			}
			if len(m.Members) != len(nodes) {
				return false, fmt.Sprintf("%s: %d members, want %d", tn.id, len(m.Members), len(nodes))
			}
			for _, mem := range m.Members {
				if mem.State != cluster.StateActive {
					return false, fmt.Sprintf("%s: member %s still %s", tn.id, mem.ID, mem.State)
				}
			}
			var rb cluster.RebalanceStatus
			if err := tryGetJSON(tn.ts.URL+"/cluster/rebalance", &rb); err != nil {
				return false, fmt.Sprintf("%s: rebalance status unreachable: %v", tn.id, err)
			}
			if rb.Active || rb.Pending != 0 {
				return false, fmt.Sprintf("%s: rebalance active=%v pending=%d lastErr=%q",
					tn.id, rb.Active, rb.Pending, rb.LastError)
			}
		}
		return true, ""
	}
	deadline := time.Now().Add(d)
	for {
		ok, why := check()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for cluster convergence: %s", why)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// assertOwnedOnce checks, for every sensor, that all listed nodes
// agree on a single live owner and that the owner actually holds the
// sensor's state. (Replicas also hold state; data presence alone is
// not an ownership count.)
func assertOwnedOnce(t *testing.T, nodes []*testNode, sensors []string) {
	t.Helper()
	for _, s := range sensors {
		owner := ""
		for _, tn := range nodes {
			var route cluster.SensorRoute
			if err := tryGetJSON(tn.ts.URL+"/cluster/ring?sensor="+s, &route); err != nil {
				t.Fatalf("route for %s via %s: %v", s, tn.id, err)
			}
			if route.Promoted {
				t.Fatalf("sensor %s served promoted via %s (owner %s down?)", s, tn.id, route.Owner)
			}
			if owner == "" {
				owner = route.Owner
			} else if route.Owner != owner {
				t.Fatalf("sensor %s: %s routes to %s, others to %s", s, tn.id, route.Owner, owner)
			}
		}
		ot := byID(t, nodes, owner)
		if !ot.sys.HasSensor(s) {
			t.Fatalf("sensor %s: owner %s does not hold its state", s, owner)
		}
	}
}
