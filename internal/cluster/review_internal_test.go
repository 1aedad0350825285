package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"smiler"
	"smiler/internal/ingest"
	"smiler/internal/server"
)

// internalNode is one in-process member for tests that need access to
// unexported node internals (pause, replicator bookkeeping).
type internalNode struct {
	id   string
	sys  *smiler.System
	srv  *server.Server
	ts   *httptest.Server
	node *Node
}

func internalSysConfig() smiler.Config {
	cfg := smiler.DefaultConfig()
	cfg.Omega = 8
	cfg.ELV = []int{16, 24, 40}
	cfg.EKV = []int{4, 8}
	cfg.Predictor = smiler.PredictorAR
	return cfg
}

func internalHist(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 50 + 10*math.Sin(2*math.Pi*float64(i)/48)
	}
	return out
}

// newInternalCluster brings up one in-process node per id, with direct
// access to the Node structs. mutate, when non-nil, adjusts each
// node's cluster config before it starts.
func newInternalCluster(t *testing.T, mutate func(*Config), ids ...string) []*internalNode {
	t.Helper()
	nodes := make([]*internalNode, len(ids))
	members := make([]Member, len(ids))
	for i, id := range ids {
		sys, err := smiler.New(internalSysConfig())
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
		nodes[i] = &internalNode{id: id, sys: sys, srv: srv, ts: ts}
		members[i] = Member{ID: id, URL: ts.URL}
	}
	for _, in := range nodes {
		cfg := Config{
			Self:          in.id,
			Members:       members,
			Replicas:      1,
			ProbeInterval: 15 * time.Millisecond,
			ProbeFailures: 2,
			HTTPClient:    &http.Client{Timeout: 2 * time.Second},
		}
		if mutate != nil {
			mutate(&cfg)
		}
		node, err := New(in.sys, in.srv, cfg)
		if err != nil {
			t.Fatal(err)
		}
		in.node = node
	}
	t.Cleanup(func() {
		for _, in := range nodes {
			in.node.Close()
			in.ts.Close()
			in.srv.Close()
			in.sys.Close()
		}
	})
	return nodes
}

// newInternalPair is the two-node case.
func newInternalPair(t *testing.T) [2]*internalNode {
	t.Helper()
	nodes := newInternalCluster(t, nil, "p1", "p2")
	return [2]*internalNode{nodes[0], nodes[1]}
}

// TestBulkObserveRejectsPausedSensor: while a sensor is quiesced for a
// resync snapshot, a bulk batch containing it must not apply on this
// node — directly (503 to the caller) or via a forwarded partition
// (the owner rejects, the entry reports the item failed). An
// observation applied under the pause would land between the
// snapshot's sequence tag and its state.
func TestBulkObserveRejectsPausedSensor(t *testing.T) {
	nodes := newInternalPair(t)
	const sensor = "pause-bulk"
	ownerMember, _ := nodes[0].node.route(sensor)
	var owner, other *internalNode
	for _, in := range nodes {
		if in.id == ownerMember.ID {
			owner = in
		} else {
			other = in
		}
	}
	if err := owner.sys.AddSensor(sensor, internalHist(400)); err != nil {
		t.Fatal(err)
	}

	const body = `{"observations":[{"id":"` + sensor + `","value":51}]}`
	post := func(url string) *http.Response {
		t.Helper()
		resp, err := http.Post(url+"/observations", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	owner.node.pauseSensor(sensor)

	// Directly on the quiescing owner: the whole batch answers 503 with
	// a retry hint, nothing applies.
	resp := post(owner.ts.URL)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("bulk on paused owner: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 for a quiescing sensor must carry Retry-After")
	}

	// Through the other node: the partition forwards to the owner, whose
	// pause check rejects it; the entry reports the item as failed.
	resp = post(other.ts.URL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk via non-owner: HTTP %d, want 200 with per-item failure", resp.StatusCode)
	}
	var res ingest.BulkResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 0 || len(res.Failed) != 1 {
		t.Fatalf("bulk via non-owner during pause: %+v, want 0 accepted / 1 failed", res)
	}

	owner.node.unpauseSensor(sensor)
	resp = post(owner.ts.URL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk after unpause: HTTP %d, want 200", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 1 {
		t.Fatalf("bulk after unpause: %+v, want 1 accepted", res)
	}
	if err := owner.srv.Pipeline().Drain(); err != nil {
		t.Fatal(err)
	}
	if got, _ := owner.sys.HistoryLen(sensor); got != 401 {
		t.Fatalf("owner history = %d, want 401 (exactly the post-unpause item)", got)
	}
}

// TestForwardedObserveRejectedMidCutover: while the owner holds a
// sensor's pause to capture a resync snapshot, a write forwarded to it
// by another member must be refused with a retry hint, not applied
// under the snapshot — the gate checks the pause before it routes, for
// forwarded and direct writes alike.
func TestForwardedObserveRejectedMidCutover(t *testing.T) {
	nodes := newInternalPair(t)
	const sensor = "cutover-window"
	ownerMember, _ := nodes[0].node.route(sensor)
	owner, other := nodes[0], nodes[1]
	if owner.id != ownerMember.ID {
		owner, other = other, owner
	}
	if err := owner.sys.AddSensor(sensor, internalHist(400)); err != nil {
		t.Fatal(err)
	}
	owner.node.pauseSensor(sensor)

	send := func() *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, owner.ts.URL+"/sensors/"+sensor+"/observe", strings.NewReader(`{"value":51}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(forwardedHeader, "1")
		req.Header.Set(fromHeader, other.id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	resp := send()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("forwarded observe during a snapshot: HTTP %d (Retry-After %q), want 503 with a retry hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if err := owner.srv.Pipeline().Drain(); err != nil {
		t.Fatal(err)
	}
	if got, _ := owner.sys.HistoryLen(sensor); got != 400 {
		t.Fatalf("owner's history = %d, want 400: the write applied under the pause", got)
	}
	owner.node.unpauseSensor(sensor)
	if resp := send(); resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded observe after the pause: HTTP %d, want 200", resp.StatusCode)
	}
	if err := owner.srv.Pipeline().Drain(); err != nil {
		t.Fatal(err)
	}
	if got, _ := owner.sys.HistoryLen(sensor); got != 401 {
		t.Fatalf("owner's history = %d, want 401 after the pause lifts", got)
	}
}

// TestSinceContactSeededAtBoot: a peer that is already down when this
// node starts must accrue staleness from process start — not read as
// freshly contacted forever, which would let a restarted replica serve
// degraded reads past MaxStaleness indefinitely.
func TestSinceContactSeededAtBoot(t *testing.T) {
	sys, err := smiler.New(internalSysConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv, err := server.NewWithOptions(sys, server.Options{
		Pipeline: ingest.Config{Shards: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	node, err := New(sys, srv, Config{
		Self: "a",
		Members: []Member{
			{ID: "a", URL: ts.URL},
			{ID: "dead", URL: "http://127.0.0.1:9"}, // never answers
		},
		ProbeInterval: 10 * time.Millisecond,
		HTTPClient:    &http.Client{Timeout: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	time.Sleep(30 * time.Millisecond)
	if got := node.repl.sinceContact("dead"); got <= 0 {
		t.Fatalf("sinceContact for a never-heard member = %v, want > 0 (seeded at boot)", got)
	}
	// Ids outside the membership are not routable and stay at zero.
	if got := node.repl.sinceContact("not-a-member"); got != 0 {
		t.Fatalf("sinceContact for a non-member = %v, want 0", got)
	}
}

// sensorLedBy returns a sensor whose preference list starts first,
// second.
func sensorLedBy(t *testing.T, n *Node, first, second string) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		s := fmt.Sprintf("led-%d", i)
		if p := n.preference(s); p[0] == first && p[1] == second {
			return s
		}
	}
	t.Fatalf("no sensor led by %s, %s", first, second)
	return ""
}

// registerAndReplicate adds a 400-point sensor on its owner and waits
// for the follower's copy.
func registerAndReplicate(t *testing.T, owner, follower *internalNode, sensor string) {
	t.Helper()
	body := fmt.Sprintf(`{"id":%q,"history":%s}`, sensor, strings.ReplaceAll(fmt.Sprint(internalHist(400)), " ", ","))
	resp, err := http.Post(owner.ts.URL+"/sensors", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register %s: HTTP %d", sensor, resp.StatusCode)
	}
	eventually(t, 5*time.Second, "the follower's copy", func() bool { return follower.sys.HasSensor(sensor) })
}

// postBulk sends one observation of sensor as a bulk batch to base.
func postBulk(t *testing.T, base, sensor string) ingest.BulkResult {
	t.Helper()
	resp, err := http.Post(base+"/observations", "application/json",
		strings.NewReader(`{"observations":[{"id":"`+sensor+`","value":51}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bulk via %s: HTTP %d", base, resp.StatusCode)
	}
	var res ingest.BulkResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestForwardedWriteUnderHealthSkewRefused: n1 alone believes the
// primary n2 is down and forwards the sensor's requests to the follower
// n3, which sees n2 up. n3 is not the primary, so it answers as a
// replica: the write is refused (single and bulk), never applied to a
// copy n2 will not see, and the read is tagged degraded.
func TestForwardedWriteUnderHealthSkewRefused(t *testing.T) {
	nodes := newInternalCluster(t, func(c *Config) { c.ProbeInterval = time.Hour }, "n1", "n2", "n3")
	entry, owner, follower := nodes[0], nodes[1], nodes[2]
	sensor := sensorLedBy(t, entry.node, "n2", "n3")
	registerAndReplicate(t, owner, follower, sensor)
	for i := 0; i < entry.node.cfg.ProbeFailures; i++ {
		entry.node.health.record("n2", errors.New("held down by the test"))
	}

	resp, err := http.Post(entry.ts.URL+"/sensors/"+sensor+"/observe", "application/json", strings.NewReader(`{"value":51}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("observe forwarded to a non-primary: HTTP %d (Retry-After %q), want 503 with a retry hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if res := postBulk(t, entry.ts.URL, sensor); res.Accepted != 0 || len(res.Failed) != 1 {
		t.Fatalf("bulk forwarded to a non-primary: %+v, want the item failed", res)
	}
	var fc server.ForecastResponse
	resp, err = http.Get(entry.ts.URL + "/sensors/" + sensor + "/forecast?h=1")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&fc)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !fc.Degraded || fc.DegradedReason != "replica" {
		t.Fatalf("read forwarded to a non-primary: HTTP %d %+v (%v), want a degraded replica answer", resp.StatusCode, fc, err)
	}
	for _, in := range []*internalNode{owner, follower} {
		if err := in.srv.Pipeline().Drain(); err != nil {
			t.Fatal(err)
		}
		if got, _ := in.sys.HistoryLen(sensor); got != 400 {
			t.Fatalf("%s history = %d, want 400: a write applied off the primary", in.id, got)
		}
	}
}

// TestBulkObserveRefusedOnPromotedReplica: with the primary down, a
// bulk item for its sensor fails on the promoted replica, as a single
// observe does, instead of forking the replica's history.
func TestBulkObserveRefusedOnPromotedReplica(t *testing.T) {
	nodes := newInternalCluster(t, nil, "n1", "n2", "n3")
	owner, follower := nodes[1], nodes[2]
	sensor := sensorLedBy(t, follower.node, "n2", "n3")
	registerAndReplicate(t, owner, follower, sensor)
	owner.ts.Close()
	eventually(t, 5*time.Second, "n3 to see n2 down", func() bool { return !follower.node.health.isUp("n2") })

	if res := postBulk(t, follower.ts.URL, sensor); res.Accepted != 0 || len(res.Failed) != 1 {
		t.Fatalf("bulk on the promoted replica: %+v, want the item failed", res)
	}
	if err := follower.srv.Pipeline().Drain(); err != nil {
		t.Fatal(err)
	}
	if got, _ := follower.sys.HistoryLen(sensor); got != 400 {
		t.Fatalf("promoted replica history = %d, want 400", got)
	}
}
