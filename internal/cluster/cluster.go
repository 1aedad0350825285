// Package cluster turns independent SMiLer serving nodes into a
// dynamically-membered cluster with sensor sharding, asynchronous
// replication, probe-driven failover, online migration, and
// zero-downtime join/drain/leave.
//
// Placement is a consistent-hash ring with virtual nodes: a sensor id
// maps to a preference list of members; the first is its owner
// (primary), the next Replicas are its followers. Any node accepts
// any request — an ownership gate in front of the local route table
// forwards misrouted requests to the owner, so clients need no
// routing knowledge (responses carry ownership hints for clients that
// want to learn it).
//
// Membership is a versioned cluster map (clustermap.go): a monotonic
// epoch signed by the elected primary, pushed to all members and
// pulled by any node that sees a higher epoch on a peer request or on
// the response to any call it made (peer.go: the one function every
// node-to-node call goes through, and the one route table). The
// lowest-id-alive active member is the primary (vote.go); it admits
// joiners, flips drainers, and drives batched resumable rebalancing
// (rebalance.go) over the bit-exact migration primitive below.
//
// The owner ships every applied mutation to its followers as WAL
// frames (the on-disk envelope plus a per-sensor sequence number)
// over HTTP; followers apply in order, drop duplicates, and heal any
// gap by requesting a snapshot — the same bit-exact checkpoint
// envelope the durability layer writes, tagged with the sequence it
// covers. Replication is asynchronous: acknowledged writes can lag on
// followers, which is why failover serves Degraded forecasts.
//
// A health prober watches every peer's /readyz; after ProbeFailures
// consecutive failures the peer is down and ownership slides to the
// next healthy node in each sensor's preference list. The promoted
// node keeps serving forecasts from its replica (tagged Degraded:
// "replica", refused entirely once the staleness bound is exceeded)
// but rejects mutations with 503 — reads stay available, writes wait
// for the owner, so a returning primary cannot have missed writes. A
// draining member answers /readyz with 503 {"status":"draining"} but
// is deliberately treated as alive: it keeps serving the sensors it
// still owns while the rebalancer hands them off.
//
// Migration moves a sensor between live nodes without losing an
// observation: quiesce (pause new writes, drain the pipeline), snap
// the sensor's checkpoint bytes plus its replication sequence, POST
// them to the target, flip an ownership override on every member, and
// resume — the target's state is bit-identical to the source's.
package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smiler"
	"smiler/internal/ingest"
	"smiler/internal/server"
	"smiler/internal/wal"
)

// Member is one cluster member as recorded in the cluster map.
type Member struct {
	ID    string      `json:"id"`
	URL   string      `json:"url"` // base URL, e.g. "http://10.0.0.7:8080"
	State MemberState `json:"state,omitempty"`
}

// Config configures a cluster node.
type Config struct {
	// Self is this node's member ID (must appear in Members).
	Self string
	// Members seeds the epoch-1 cluster map. All founding members must
	// boot with the same list (and Replicas/VirtualNodes/Secret) so
	// they derive the identical seed map; later membership changes flow
	// through /cluster/join and /cluster/decommission. A node booted
	// with JoinURL may list only itself.
	Members []Member
	// JoinURL, when set, points at any member of an existing cluster;
	// the node starts alone in its seed map and asks that cluster's
	// primary to admit it, receiving its ring share via rebalancing.
	JoinURL string
	// Replicas is the number of follower copies per sensor (default 1,
	// clamped to the member count minus one).
	Replicas int
	// VirtualNodes is the per-member vnode count on the ring
	// (default 64).
	VirtualNodes int
	// ProbeInterval is the peer health probe period, and the idle
	// replication heartbeat period (default 500ms).
	ProbeInterval time.Duration
	// ProbeFailures is how many consecutive probe failures mark a peer
	// down (default 3).
	ProbeFailures int
	// MaxStaleness bounds how stale a promoted replica may serve: once
	// this long has passed since the failed primary was last heard
	// from, degraded reads answer 503 instead (default 5m).
	MaxStaleness time.Duration
	// RebalanceBatch bounds how many sensor migrations the primary's
	// rebalancer issues per pacing pause (default 16).
	RebalanceBatch int
	// RebalanceInterval is the pacing pause between rebalance batches
	// (default 200ms).
	RebalanceInterval time.Duration
	// Secret, when set, is required (in the X-Smiler-Cluster-Secret
	// header) on every /cluster/* route of class secret or peer (the
	// peerRoutes table in peer.go) and attached to all intra-cluster
	// requests this node makes. It also keys the
	// cluster-map HMAC. Every member must share the same value. Leave
	// empty only when untrusted clients cannot reach the serving port
	// (see docs/CLUSTER.md, Security).
	Secret string
	// HTTPClient is used for all intra-cluster requests (default: a
	// client with a 5s timeout).
	HTTPClient *http.Client
	// Logger, when set, receives cluster state transitions.
	Logger *slog.Logger
}

func (c *Config) applyDefaults() {
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = 64
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeFailures <= 0 {
		c.ProbeFailures = 3
	}
	if c.MaxStaleness <= 0 {
		c.MaxStaleness = 5 * time.Minute
	}
	if c.RebalanceBatch <= 0 {
		c.RebalanceBatch = 16
	}
	if c.RebalanceInterval <= 0 {
		c.RebalanceInterval = 200 * time.Millisecond
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Timeout: 5 * time.Second}
	}
}

// Node glues one server into the cluster: it installs the ownership
// gate, mounts the /cluster/* endpoints, runs the health prober, the
// replication streams, the elector and the rebalancer.
type Node struct {
	cfg     Config
	sys     *smiler.System
	srv     *server.Server
	hc      *http.Client
	log     *slog.Logger
	selfURL string

	// view is the membership snapshot derived from the installed
	// cluster map; mapMu serializes installs, proposeMu serializes
	// primary-side map mutations.
	view      atomic.Pointer[memberView]
	mapMu     sync.Mutex
	proposeMu sync.Mutex
	primary   atomic.Value // string: last computed primary (elector)
	pulling   atomic.Bool  // a map pull is in flight

	health *prober
	repl   *replicator
	reb    *rebalancer
	m      *metrics

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	drained     chan struct{}
	drainedOnce sync.Once

	// assign overrides ring placement per sensor (migration). It wins
	// over the ring's preference head.
	assignMu sync.RWMutex
	assign   map[string]string

	// paused sensors reject new mutations with 503 while a snapshot or
	// migration quiesce is in progress.
	pauseMu sync.Mutex
	paused  map[string]bool
}

// New builds the node, wires it into srv (gate, routes, replication
// hook) and starts its prober, replication, elector and rebalancer
// workers. Call before the listener starts serving. The caller still
// owns sys and srv.
func New(sys *smiler.System, srv *server.Server, cfg Config) (*Node, error) {
	if sys == nil || srv == nil {
		return nil, errors.New("cluster: nil system or server")
	}
	if len(cfg.Members) < 2 && cfg.JoinURL == "" {
		return nil, errors.New("cluster: need at least two members (or a join URL)")
	}
	members := make(map[string]Member, len(cfg.Members))
	for _, m := range cfg.Members {
		if m.ID == "" {
			return nil, errors.New("cluster: member with empty id")
		}
		u, err := url.Parse(m.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: member %q has invalid URL %q", m.ID, m.URL)
		}
		m.URL = strings.TrimSuffix(u.String(), "/")
		if _, dup := members[m.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate member id %q", m.ID)
		}
		members[m.ID] = m
	}
	self, ok := members[cfg.Self]
	if !ok {
		return nil, fmt.Errorf("cluster: self %q is not a member", cfg.Self)
	}
	cfg.applyDefaults()
	n := &Node{
		cfg:     cfg,
		sys:     sys,
		srv:     srv,
		hc:      cfg.HTTPClient,
		log:     cfg.Logger,
		selfURL: self.URL,
		done:    make(chan struct{}),
		drained: make(chan struct{}),
		assign:  make(map[string]string),
		paused:  make(map[string]bool),
	}
	n.health = newProber(n)
	n.repl = newReplicator(n)
	n.reb = newRebalancer(n)
	if err := n.installMap(seedMap(cfg, members)); err != nil {
		return nil, fmt.Errorf("cluster: seed map: %w", err)
	}
	n.m = newMetrics(sys.Metrics(), n)
	n.m.syncPeers(n.peerIDs())

	n.mountPeerRoutes()
	srv.SetGate(n.gate)
	// Every observation the pipeline applies locally streams to this
	// sensor's followers (the gate only lets the owner apply locally,
	// so emission happens exactly once per write).
	srv.Pipeline().SetOnApplied(func(o ingest.Observation) {
		n.repl.emit(wal.Record{Type: wal.RecObserve, Sensor: o.Sensor, Value: o.Value})
	})

	n.health.start()
	n.repl.start()
	n.wg.Add(2)
	go n.electorLoop()
	go n.reb.loop()
	if cfg.JoinURL != "" {
		n.wg.Add(1)
		go n.joinLoop()
	}
	return n, nil
}

// Close stops the prober, replication, elector and rebalancer workers
// and detaches the node from its server (gate and hook cleared). The
// server keeps serving single-node. Safe to call more than once.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		close(n.done)
		n.srv.SetGate(nil)
		n.srv.Pipeline().SetOnApplied(nil)
		n.health.close()
		n.repl.close()
		n.wg.Wait()
	})
	return nil
}

// member looks up a member by id in the installed map.
func (n *Node) member(id string) (Member, bool) {
	v := n.curView()
	if v == nil {
		return Member{}, false
	}
	m, ok := v.members[id]
	return m, ok
}

// peerIDs returns every member id except self, sorted.
func (n *Node) peerIDs() []string {
	v := n.curView()
	if v == nil {
		return nil
	}
	return v.peers
}

// --- placement ---

// preference returns the sensor's member preference order: the
// migration override first (when set), then the placement-ring walk.
func (n *Node) preference(sensor string) []string {
	v := n.curView()
	if v == nil {
		return nil
	}
	pref := v.place.Preference(sensor, len(v.members))
	n.assignMu.RLock()
	override, ok := n.assign[sensor]
	n.assignMu.RUnlock()
	if !ok || (len(pref) > 0 && pref[0] == override) {
		return pref
	}
	out := make([]string, 0, len(pref)+1)
	out = append(out, override)
	for _, id := range pref {
		if id != override {
			out = append(out, id)
		}
	}
	return out
}

// route resolves the sensor's effective owner: the first healthy node
// in its preference order. promoted reports that the effective owner
// is standing in for a down primary (it serves degraded reads only).
func (n *Node) route(sensor string) (owner Member, promoted bool) {
	pref := n.preference(sensor)
	if len(pref) == 0 {
		return Member{}, false
	}
	for i, id := range pref {
		if n.health.isUp(id) {
			m, _ := n.member(id)
			return m, i > 0
		}
	}
	// Everyone is down (by our view): fall back to the primary; the
	// forward will fail and surface as 502.
	m, _ := n.member(pref[0])
	return m, false
}

// replicaTargets returns the follower ids for a sensor: the first
// Replicas members after the effective owner in preference order.
// Self counts toward the replica budget but is never a target (a node
// does not stream to itself).
func (n *Node) replicaTargets(sensor string) []string {
	v := n.curView()
	if v == nil {
		return nil
	}
	reps := v.cmap.Replicas
	if max := len(v.members) - 1; reps > max {
		reps = max
	}
	pref := n.preference(sensor)
	owner, _ := n.route(sensor)
	var out []string
	taken := 0
	for _, id := range pref {
		if id == owner.ID {
			continue
		}
		if taken >= reps {
			break
		}
		taken++
		if id != n.cfg.Self {
			out = append(out, id)
		}
	}
	return out
}

// --- pause (quiesce) ---

func (n *Node) pauseSensor(sensor string) {
	n.pauseMu.Lock()
	n.paused[sensor] = true
	n.pauseMu.Unlock()
}

func (n *Node) unpauseSensor(sensor string) {
	n.pauseMu.Lock()
	delete(n.paused, sensor)
	n.pauseMu.Unlock()
}

func (n *Node) isPaused(sensor string) bool {
	n.pauseMu.Lock()
	defer n.pauseMu.Unlock()
	return n.paused[sensor]
}

// captureSensor reads a paused sensor's (checkpoint bytes, covered
// seq) pair atomically: the caller holds the pause, so new mutations
// 503 (clients retry under their idempotent backoff); the pipeline
// drains, and only then are the sequence number and state read.
func (n *Node) captureSensor(sensor string) ([]byte, uint64, error) {
	if err := n.srv.Pipeline().Drain(); err != nil {
		return nil, 0, err
	}
	seq := n.repl.seqOf(sensor)
	var b bytes.Buffer
	if err := n.sys.SaveSensorTo(&b, sensor); err != nil {
		return nil, 0, err
	}
	return b.Bytes(), seq, nil
}

// --- info endpoints ---

// RingInfo is GET /cluster/ring without a sensor: the membership view.
type RingInfo struct {
	Self     string   `json:"self"`
	Epoch    uint64   `json:"epoch"`
	Primary  string   `json:"primary,omitempty"` // locally elected
	Members  []Member `json:"members"`
	Replicas int      `json:"replicas"`
}

// SensorRoute is GET /cluster/ring?sensor=...: one sensor's placement.
type SensorRoute struct {
	Sensor     string   `json:"sensor"`
	Owner      string   `json:"owner"`
	OwnerURL   string   `json:"owner_url"`
	Promoted   bool     `json:"promoted"`
	Preference []string `json:"preference"`
}

func (n *Node) handleRing(w http.ResponseWriter, r *http.Request) {
	sensor := r.URL.Query().Get("sensor")
	if sensor == "" {
		info := RingInfo{Self: n.cfg.Self, Epoch: n.epoch(), Primary: n.electedPrimary()}
		if v := n.curView(); v != nil {
			info.Replicas = v.cmap.Replicas
			info.Members = append(info.Members, v.cmap.Members...)
		}
		writeJSON(w, http.StatusOK, info)
		return
	}
	owner, promoted := n.route(sensor)
	writeJSON(w, http.StatusOK, SensorRoute{
		Sensor: sensor, Owner: owner.ID, OwnerURL: owner.URL,
		Promoted: promoted, Preference: n.preference(sensor),
	})
}

func (n *Node) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"self":    n.cfg.Self,
		"epoch":   n.epoch(),
		"primary": n.electedPrimary(),
		"peers":   n.health.snapshot(),
	})
}
