// Package cluster turns a fixed set of SMiLer serving nodes into one
// cluster with sensor sharding, asynchronous replication and
// probe-driven failover.
//
// Placement is a consistent-hash ring with virtual nodes: a sensor id
// maps to a preference list of members; the first is its owner
// (primary), the next Replicas are its followers. Any node accepts
// any request — an ownership gate in front of the local route table
// forwards misrouted requests to the owner, so clients need no
// routing knowledge (responses carry ownership hints for clients that
// want to learn it).
//
// Membership is fixed for the cluster's life: every node builds one
// immutable view (members, ring, peers, replica count) from its
// Config at New, and all members boot with the same list. Changing
// membership means starting a new cluster (docs/CLUSTER.md).
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
// for the owner, so a returning primary cannot have missed writes.
package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"smiler"
	"smiler/internal/server"
	"smiler/internal/wal"
)

// virtualNodes is the per-member vnode count on the placement ring.
const virtualNodes = 64

// Member is one cluster member.
type Member struct {
	ID  string `json:"id"`
	URL string `json:"url"` // base URL, e.g. "http://10.0.0.7:8080"
}

// Config configures a cluster node.
type Config struct {
	// Self is this node's member ID (must appear in Members).
	Self string
	// Members is the cluster's membership for its whole life. Every
	// member must boot with the same list (and Replicas and Secret) so
	// all nodes place every sensor identically.
	Members []Member
	// Replicas is the number of follower copies per sensor (default 1,
	// clamped to the member count minus one).
	Replicas int
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
	// Secret, when set, is required (in the X-Smiler-Cluster-Secret
	// header) on every /cluster/* route of class peer (the peerRoutes
	// table in peer.go) and attached to all intra-cluster requests this
	// node makes. Every member must share the same value. Leave empty
	// only when untrusted clients cannot reach the serving port (see
	// docs/CLUSTER.md, Security).
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
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeFailures <= 0 {
		c.ProbeFailures = 3
	}
	if c.MaxStaleness <= 0 {
		c.MaxStaleness = 5 * time.Minute
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Timeout: 5 * time.Second}
	}
}

// memberView is the node's membership, built once at New.
type memberView struct {
	list     []Member // sorted by id
	members  map[string]Member
	place    *Ring
	peers    []string // every member id except self, sorted
	replicas int      // Config.Replicas clamped to len(members)-1
}

// Node glues one server into the cluster: it installs the ownership
// gate, mounts the /cluster/* endpoints, and runs the health prober
// and the replication streams.
type Node struct {
	cfg     Config
	sys     *smiler.System
	srv     *server.Server
	hc      *http.Client
	log     *slog.Logger
	selfURL string
	view    *memberView

	health *prober
	repl   *replicator
	m      *metrics

	closeOnce sync.Once
}

// New builds the node, wires it into srv (gate, routes, replication
// hook) and starts its prober and replication workers. Call before
// the listener starts serving. The caller still owns sys and srv.
func New(sys *smiler.System, srv *server.Server, cfg Config) (*Node, error) {
	if sys == nil || srv == nil {
		return nil, errors.New("cluster: nil system or server")
	}
	if len(cfg.Members) < 2 {
		return nil, errors.New("cluster: need at least two members")
	}
	v := &memberView{members: make(map[string]Member, len(cfg.Members))}
	for _, m := range cfg.Members {
		if m.ID == "" {
			return nil, errors.New("cluster: member with empty id")
		}
		u, err := url.Parse(m.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: member %q has invalid URL %q", m.ID, m.URL)
		}
		m.URL = strings.TrimSuffix(u.String(), "/")
		if _, dup := v.members[m.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate member id %q", m.ID)
		}
		v.members[m.ID] = m
		v.list = append(v.list, m)
	}
	self, ok := v.members[cfg.Self]
	if !ok {
		return nil, fmt.Errorf("cluster: self %q is not a member", cfg.Self)
	}
	cfg.applyDefaults()
	sort.Slice(v.list, func(i, j int) bool { return v.list[i].ID < v.list[j].ID })
	ids := make([]string, 0, len(v.list))
	for _, m := range v.list {
		ids = append(ids, m.ID)
		if m.ID != cfg.Self {
			v.peers = append(v.peers, m.ID)
		}
	}
	v.place = NewRing(ids, virtualNodes)
	v.replicas = min(cfg.Replicas, len(ids)-1)

	n := &Node{
		cfg:     cfg,
		sys:     sys,
		srv:     srv,
		hc:      cfg.HTTPClient,
		log:     cfg.Logger,
		selfURL: self.URL,
		view:    v,
	}
	n.health = newProber(n)
	n.repl = newReplicator(n)
	n.m = newMetrics(sys.Metrics(), n)

	n.mountPeerRoutes()
	srv.SetGate(n.gate)
	// Every write the pipeline applies locally streams to this sensor's
	// followers (the gate only lets the owner apply locally, so emission
	// happens exactly once per write).
	srv.Pipeline().SetOnApplied(n.replicate)

	n.health.start()
	n.repl.start()
	return n, nil
}

// Close stops the prober and replication workers and detaches the node
// from its server (gate and hook cleared). The server keeps serving
// single-node. Safe to call more than once.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		n.srv.SetGate(nil)
		n.srv.Pipeline().SetOnApplied(nil)
		n.health.close()
		n.repl.close()
	})
	return nil
}

// replicate is the pipeline's post-apply hook: it streams one applied
// write to the sensor's followers. It runs under the sensor's shard
// lock, so frames leave in apply order. A registration's frame carries
// the history the system holds (after the MaxHistory cap), a
// self-contained replace of the follower's copy; a removal also ends
// the sensor's replication sequence.
func (n *Node) replicate(rec wal.Record) {
	if rec.Type == wal.RecAddSensor {
		history, err := n.sys.History(rec.Sensor)
		if err != nil {
			// A failed fault-in: the follower learns of the sensor from
			// its next frame, which it answers with a resync request.
			return
		}
		rec.History = history
	}
	n.repl.emit(rec)
	if rec.Type == wal.RecRemoveSensor {
		n.repl.dropSeq(rec.Sensor)
	}
}

// --- placement ---

// preference returns the sensor's member preference order: the
// placement-ring walk.
func (n *Node) preference(sensor string) []string {
	return n.view.place.Preference(sensor, len(n.view.list))
}

// route resolves the sensor's effective owner: the first healthy node
// in its preference order. promoted reports that the effective owner
// is standing in for a down primary (it serves degraded reads only).
func (n *Node) route(sensor string) (owner Member, promoted bool) {
	pref := n.preference(sensor)
	for i, id := range pref {
		if n.health.isUp(id) {
			return n.view.members[id], i > 0
		}
	}
	// Everyone is down (by our view): fall back to the primary; the
	// forward will fail and surface as 502.
	return n.view.members[pref[0]], false
}

// replicaTargets returns the follower ids for a sensor: the first
// Replicas members after the effective owner in preference order.
// Self counts toward the replica budget but is never a target (a node
// does not stream to itself).
func (n *Node) replicaTargets(sensor string) []string {
	owner, _ := n.route(sensor)
	var out []string
	taken := 0
	for _, id := range n.preference(sensor) {
		if id == owner.ID {
			continue
		}
		if taken >= n.view.replicas {
			break
		}
		taken++
		if id != n.cfg.Self {
			out = append(out, id)
		}
	}
	return out
}

// --- resync snapshot ---

// captureSensor reads a sensor's (checkpoint bytes, covered seq) pair
// atomically. It holds the sensor's shard lock, under which every
// write (observation, registration, removal) is applied and emitted,
// so every frame at or below the sequence it reads is inside the
// snapshot and every frame above it is not. Lock order: shard lock →
// replication seq → system.
func (n *Node) captureSensor(sensor string) (snap []byte, seq uint64, err error) {
	n.srv.Pipeline().WithSensorLocked(sensor, func() { snap, seq, err = n.captureLocked(sensor) })
	return snap, seq, err
}

// captureLocked is captureSensor's body; the caller holds the sensor's
// shard lock.
func (n *Node) captureLocked(sensor string) ([]byte, uint64, error) {
	seq := n.repl.seqOf(sensor)
	var b bytes.Buffer
	if err := n.sys.SaveSensorTo(&b, sensor); err != nil {
		return nil, 0, err
	}
	return b.Bytes(), seq, nil
}

// --- info endpoints ---

// RingInfo is GET /cluster/ring without a sensor: the membership.
type RingInfo struct {
	Self     string   `json:"self"`
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
		writeJSON(w, http.StatusOK, RingInfo{Self: n.cfg.Self, Members: n.view.list, Replicas: n.view.replicas})
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
		"self":  n.cfg.Self,
		"peers": n.health.snapshot(),
	})
}
