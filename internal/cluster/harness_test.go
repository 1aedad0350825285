package cluster_test

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
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
