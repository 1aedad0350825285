package cluster_test

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"smiler/internal/cluster"
	"smiler/internal/server"
)

// clusterSecretHeader is the wire name of the shared-secret header
// (cluster.Config.Secret); spelled out here because it is part of the
// HTTP contract, not the Go API.
const clusterSecretHeader = "X-Smiler-Cluster-Secret"

// TestClusterBulkIdempotentRetry: a keyed bulk POST retried through the
// SAME entry node replays from the idempotency cache, and retried
// through a DIFFERENT entry node still applies nothing twice — every
// partition (including each node's own local one) dedupes under its
// derived per-owner key.
func TestClusterBulkIdempotentRetry(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	rng := rand.New(rand.NewSource(8))

	sensors := make([]string, 6)
	owners := make(map[string]*testNode, len(sensors))
	cl, err := server.NewClient(nodes[0].ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sensors {
		sensors[i] = fmt.Sprintf("bulk-idem-%d", i)
		owners[sensors[i]] = ownerOf(t, nodes, sensors[i])
		if err := cl.AddSensor(sensors[i], seasonal(rng, 400)); err != nil {
			t.Fatal(err)
		}
	}

	var items []string
	for _, s := range sensors {
		items = append(items, `{"id":"`+s+`","value":50.5}`)
	}
	body := `{"observations":[` + strings.Join(items, ",") + `]}`
	send := func(entry *testNode) *http.Response {
		req, err := http.NewRequest(http.MethodPost, entry.ts.URL+"/observations", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(server.IdempotencyKeyHeader, "bulk-retry-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	check := func(resp *http.Response, what string) {
		t.Helper()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d", what, resp.StatusCode)
		}
		var res struct {
			Accepted int `json:"accepted"`
			Failed   []struct {
				Error string `json:"error"`
			} `json:"failed"`
		}
		if err := jsonDecode(resp.Body, &res); err != nil {
			t.Fatal(err)
		}
		if res.Accepted != len(sensors) || len(res.Failed) != 0 {
			t.Fatalf("%s: accepted=%d failed=%+v, want %d accepted", what, res.Accepted, res.Failed, len(sensors))
		}
	}

	check(send(nodes[0]), "first bulk")
	drainAll(t, nodes)

	// Retry through the same node: full-request replay.
	second := send(nodes[0])
	if second.Header.Get(server.IdempotentReplayHeader) != "1" {
		t.Fatal("same-node bulk retry must be served from the idempotency cache")
	}
	check(second, "same-node retry")

	// Retry through a different node: the outer key is new there, but
	// each partition — including that node's own, applied locally on the
	// first attempt's forward — dedupes under key+"/"+owner.
	check(send(nodes[1]), "cross-node retry")
	drainAll(t, nodes)

	for _, s := range sensors {
		if got, _ := owners[s].sys.HistoryLen(s); got != 401 {
			t.Fatalf("sensor %s history on its owner = %d, want 401 (bulk retries must not double-apply)", s, got)
		}
	}
}

// TestClusterPeerEndpointsRequireMembership: without a shared secret
// configured, the peer-to-peer /cluster/* mutation endpoints still
// refuse requests that do not name another cluster member as sender.
func TestClusterPeerEndpointsRequireMembership(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	for _, ep := range []string{"/cluster/replicate", "/cluster/restore"} {
		resp, err := http.Post(nodes[0].ts.URL+ep, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("POST %s without a peer header: HTTP %d, want 403", ep, resp.StatusCode)
		}
	}

	// A sender claiming to be the receiving node itself is rejected too.
	req, err := http.NewRequest(http.MethodPost, nodes[0].ts.URL+"/cluster/restore", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Smiler-From", nodes[0].id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("self-named sender: HTTP %d, want 403", resp.StatusCode)
	}

	// A known peer id clears the membership gate (and then fails
	// validation, not authentication: no sequence header).
	req, err = http.NewRequest(http.MethodPost, nodes[0].ts.URL+"/cluster/restore", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Smiler-From", nodes[1].id)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("peer-named sender with empty body: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestClusterRemovedRoutesRefused: the ring is fixed for the cluster's
// life, so the routes that changed membership or moved sensors are gone.
// A live node answers each of them 404, whatever the method.
func TestClusterRemovedRoutesRefused(t *testing.T) {
	nodes := newTestCluster(t, 2, nil)
	for _, path := range []string{
		"/cluster/map", "/cluster/join", "/cluster/decommission", "/cluster/migrate",
		"/cluster/assign", "/cluster/sensors", "/cluster/rebalance",
	} {
		for _, method := range []string{http.MethodGet, http.MethodPost} {
			req, err := http.NewRequest(method, nodes[0].ts.URL+path, strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("X-Smiler-From", nodes[1].id)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s %s: HTTP %d, want 404", method, path, resp.StatusCode)
			}
		}
	}
}

// TestClusterSharedSecret: with Config.Secret set, the peer /cluster/*
// endpoints demand the secret, and the cluster's own traffic — which
// attaches it — keeps working.
func TestClusterSharedSecret(t *testing.T) {
	nodes := newTestCluster(t, 3, func(c *cluster.Config) { c.Secret = "s3cret" })

	// A peer-named sender without the secret: rejected before any
	// parsing.
	req, err := http.NewRequest(http.MethodPost, nodes[0].ts.URL+"/cluster/restore", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Smiler-From", nodes[1].id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("restore without secret: HTTP %d, want 403", resp.StatusCode)
	}

	// With the secret it reaches validation (400: no sequence header).
	req, err = http.NewRequest(http.MethodPost, nodes[0].ts.URL+"/cluster/restore", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Smiler-From", nodes[1].id)
	req.Header.Set(clusterSecretHeader, "s3cret")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("restore with secret and no sequence header: HTTP %d, want 400", resp.StatusCode)
	}

	// A peer-named sender with the wrong secret is still rejected.
	req, err = http.NewRequest(http.MethodPost, nodes[0].ts.URL+"/cluster/restore", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Smiler-From", nodes[1].id)
	req.Header.Set(clusterSecretHeader, "wrong")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("restore with wrong secret: HTTP %d, want 403", resp.StatusCode)
	}

	// The cluster's own replication traffic carries the secret: a
	// registration through a non-owner reaches the owner and replicates
	// to the follower.
	const sensor = "secret-sensor"
	hist := seasonal(rand.New(rand.NewSource(9)), 400)
	owner := ownerOf(t, nodes, sensor)
	entry := nonOwnerOf(t, nodes, sensor)
	cl, err := server.NewClient(entry.ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.AddSensor(sensor, hist); err != nil {
		t.Fatal(err)
	}
	if !owner.sys.HasSensor(sensor) {
		t.Fatal("registration did not reach the owner")
	}
	var route struct {
		Preference []string `json:"preference"`
	}
	getJSON(t, owner.ts.URL+"/cluster/ring?sensor="+sensor, &route)
	follower := byID(t, nodes, route.Preference[1])
	waitFor(t, 5*time.Second, "registration to replicate under the secret", func() bool {
		return follower.sys.HasSensor(sensor)
	})
}

// TestClusterForwardEscapedPath: a percent-encoded sensor id survives
// forwarding byte-identical — the proxy must build the upstream URL
// from the escaped path, not the decoded one.
func TestClusterForwardEscapedPath(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	const sensor = "esc sensor" // "esc%20sensor" on the wire
	hist := seasonal(rand.New(rand.NewSource(10)), 400)

	escaped := url.PathEscape(sensor)
	owner := ownerOf(t, nodes, url.QueryEscape(sensor))
	entry := nonOwnerOf(t, nodes, url.QueryEscape(sensor))

	ownerCl, err := server.NewClient(owner.ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ownerCl.AddSensor(sensor, hist); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(entry.ts.URL + "/sensors/" + escaped + "/forecast?h=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded forecast for encoded id: HTTP %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get(server.OwnerURLHeader); got != owner.ts.URL {
		t.Fatalf("owner URL hint = %q, want %q", got, owner.ts.URL)
	}
	var fc struct {
		ID string `json:"id"`
	}
	if err := jsonDecode(resp.Body, &fc); err != nil {
		t.Fatal(err)
	}
	if fc.ID != sensor {
		t.Fatalf("forecast id = %q, want %q", fc.ID, sensor)
	}
}
