package cluster

import (
	"context"
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
// unexported node internals (snapshot capture, replicator bookkeeping).
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

// TestObserveDuringResyncSnapshotLandsOnce: writes that arrive while
// the owner captures a resync snapshot — one forwarded observe, one
// bulk item, both entering at the follower — wait on the sensor's
// shard lock until the snapshot is taken, then land on the follower
// exactly once: once in the owner's history, once as a frame above the
// snapshot's tag, and the follower's h=1 forecast equals the owner's
// bit for bit.
func TestObserveDuringResyncSnapshotLandsOnce(t *testing.T) {
	nodes := newInternalPair(t)
	const sensor = "resync-window"
	ownerMember, _ := nodes[0].node.route(sensor)
	owner, follower := nodes[0], nodes[1]
	if owner.id != ownerMember.ID {
		owner, follower = follower, owner
	}
	registerAndReplicate(t, owner, follower, sensor)

	post := func(path, body string) <-chan int {
		done := make(chan int, 1)
		go func() {
			resp, err := http.Post(follower.ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				done <- -1
				return
			}
			resp.Body.Close()
			done <- resp.StatusCode
		}()
		return done
	}
	var observe, bulk <-chan int
	var snapSeq uint64
	owner.srv.Pipeline().WithSensorLocked(sensor, func() {
		snap, seq, err := owner.node.captureLocked(sensor)
		if err != nil {
			t.Fatal(err)
		}
		snapSeq = seq
		observe = post("/sensors/"+sensor+"/observe", `{"value":61}`)
		bulk = post("/observations", `{"observations":[{"id":"`+sensor+`","value":51}]}`)
		select {
		case code := <-observe:
			t.Fatalf("observe answered %d while the snapshot held the shard lock", code)
		case code := <-bulk:
			t.Fatalf("bulk answered %d while the snapshot held the shard lock", code)
		case <-time.After(100 * time.Millisecond):
		}
		if got, _ := owner.sys.HistoryLen(sensor); got != 400 {
			t.Fatalf("owner history = %d under the capture, want 400", got)
		}
		// Ship before the lock is released: frames emitted after the
		// capture then follow the snapshot, the order the peer stream
		// gives pushSnapshot (it ships the snapshot before the next frame).
		if err := owner.node.shipSnapshot(context.Background(), owner.node.view.members[follower.id], snap, seq); err != nil {
			t.Fatal(err)
		}
	})
	if code := <-observe; code != http.StatusOK {
		t.Fatalf("observe after the snapshot: HTTP %d, want 200", code)
	}
	if code := <-bulk; code != http.StatusOK {
		t.Fatalf("bulk after the snapshot: HTTP %d, want 200", code)
	}
	if got, _ := owner.sys.HistoryLen(sensor); got != 402 {
		t.Fatalf("owner history = %d, want 402", got)
	}
	if got := owner.node.repl.seqOf(sensor); got != snapSeq+2 {
		t.Fatalf("owner emitted up to seq %d, want %d: two frames above the snapshot", got, snapSeq+2)
	}
	eventually(t, 5*time.Second, "the follower to apply both frames", func() bool {
		return follower.node.repl.seqOf(sensor) == snapSeq+2
	})
	if got, _ := follower.sys.HistoryLen(sensor); got != 402 {
		t.Fatalf("follower history = %d, want 402: a write landed twice or not at all", got)
	}
	want, err := owner.sys.Predict(sensor, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := follower.sys.Predict(sensor, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Mean) != math.Float64bits(want.Mean) || math.Float64bits(got.Variance) != math.Float64bits(want.Variance) {
		t.Fatalf("follower forecast %v±%v, owner %v±%v", got.Mean, got.Variance, want.Mean, want.Variance)
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
