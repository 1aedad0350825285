// Versioned cluster map: the single source of truth for membership.
//
// The map carries a monotonic epoch, the id of the primary that
// published it, every member with a lifecycle state, and a signature
// (HMAC-SHA256 under the shared secret, plain SHA-256 without one).
// The primary publishes a new map by bumping the epoch, signing, and
// pushing it to the union of old and new members; every intra-cluster
// request and response carries the sender's epoch and every receiver
// reads it (peer.go), so a stale node notices on its next exchange of
// any kind and pulls the newer map. A node never installs a map with
// an epoch below its own.
//
// Member states drive a two-ring view:
//
//	placement ring = active + draining members — where sensor state
//	                 lives today, so routing keeps working mid-change;
//	target ring    = active + joining members — where the rebalancer
//	                 is moving it.
//
// Per-sensor assign overrides bridge the two during a rebalance: each
// migration flips the sensor's override to its target-ring owner, and
// when the primary finalizes the map (joining→active, draining→gone)
// the placement ring catches up and the overrides become redundant.
package cluster

import (
	"bytes"
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"smiler/internal/obs"
)

// MemberState is a member's lifecycle state in the cluster map.
type MemberState string

const (
	// StateActive members own ring arcs and take new work.
	StateActive MemberState = "active"
	// StateJoining members are admitted but hold no ring arcs yet;
	// the rebalancer is migrating their future share to them.
	StateJoining MemberState = "joining"
	// StateDraining members still serve what they own but take no new
	// sensors; the rebalancer is migrating their share away.
	StateDraining MemberState = "draining"
)

// ClusterMap is the versioned membership document. Members are sorted
// by id and Sig covers the canonical JSON encoding with Sig blanked.
type ClusterMap struct {
	Epoch    uint64   `json:"epoch"`
	Primary  string   `json:"primary"` // publisher of this epoch
	Members  []Member `json:"members"`
	Replicas int      `json:"replicas"`
	VNodes   int      `json:"vnodes"`
	Sig      string   `json:"sig"`
}

func (m *ClusterMap) canonical() []byte {
	c := *m
	c.Sig = ""
	b, _ := json.Marshal(&c)
	return b
}

func (m *ClusterMap) clone() *ClusterMap {
	c := *m
	c.Members = append([]Member(nil), m.Members...)
	return &c
}

// signMap returns the map's signature: HMAC-SHA256 under the shared
// secret, or a bare SHA-256 integrity checksum when no secret is set
// (matching the trust level of the rest of the secretless endpoints).
func signMap(m *ClusterMap, secret string) string {
	if secret != "" {
		mac := hmac.New(sha256.New, []byte(secret))
		mac.Write(m.canonical())
		return hex.EncodeToString(mac.Sum(nil))
	}
	sum := sha256.Sum256(m.canonical())
	return hex.EncodeToString(sum[:])
}

func verifyMapSig(m *ClusterMap, secret string) bool {
	return hmac.Equal([]byte(signMap(m, secret)), []byte(m.Sig))
}

// memberView is an immutable snapshot derived from one installed map.
type memberView struct {
	cmap    *ClusterMap
	members map[string]Member
	place   *Ring    // active + draining: where sensor state lives
	target  *Ring    // active + joining: where it should end up
	peers   []string // every member id except self, sorted
	self    MemberState
	inMap   bool
}

func (v *memberView) stateOf(id string) MemberState {
	st := v.members[id].State
	if st == "" {
		return StateActive
	}
	return st
}

// viewNeedsRebalance reports whether any member is mid-transition.
func viewNeedsRebalance(v *memberView) bool {
	for _, mem := range v.members {
		if mem.State == StateJoining || mem.State == StateDraining {
			return true
		}
	}
	return false
}

func (n *Node) buildView(m *ClusterMap) *memberView {
	v := &memberView{cmap: m, members: make(map[string]Member, len(m.Members))}
	var placeIDs, targetIDs []string
	for _, mem := range m.Members {
		if mem.State == "" {
			mem.State = StateActive
		}
		v.members[mem.ID] = mem
		if mem.State != StateJoining {
			placeIDs = append(placeIDs, mem.ID)
		}
		if mem.State != StateDraining {
			targetIDs = append(targetIDs, mem.ID)
		}
		if mem.ID == n.cfg.Self {
			v.self, v.inMap = mem.State, true
		} else {
			v.peers = append(v.peers, mem.ID)
		}
	}
	sort.Strings(v.peers)
	v.place = NewRing(placeIDs, m.VNodes)
	v.target = NewRing(targetIDs, m.VNodes)
	return v
}

// seedMap builds the epoch-1 map from the static Config. Nodes booted
// with the same member list, replicas, vnodes and secret derive the
// byte-identical seed, so a fresh cluster agrees without a publish.
func seedMap(cfg Config, members map[string]Member) *ClusterMap {
	ids := make([]string, 0, len(members))
	for id := range members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	ms := make([]Member, 0, len(ids))
	for _, id := range ids {
		mem := members[id]
		mem.State = StateActive
		ms = append(ms, mem)
	}
	reps := cfg.Replicas
	if reps > len(ms)-1 {
		reps = len(ms) - 1
	}
	if reps < 0 {
		reps = 0
	}
	m := &ClusterMap{Epoch: 1, Primary: ids[0], Members: ms, Replicas: reps, VNodes: cfg.VirtualNodes}
	m.Sig = signMap(m, cfg.Secret)
	return m
}

// errStaleMap rejects a map whose epoch is below the installed one.
var errStaleMap = errors.New("cluster: map is stale")

func (n *Node) verifyMap(m *ClusterMap) error {
	if m == nil || m.Epoch == 0 {
		return errors.New("cluster: map missing epoch")
	}
	if len(m.Members) == 0 {
		return errors.New("cluster: map has no members")
	}
	seen := make(map[string]bool, len(m.Members))
	okPrimary := false
	for _, mem := range m.Members {
		if mem.ID == "" {
			return errors.New("cluster: map member with empty id")
		}
		if seen[mem.ID] {
			return fmt.Errorf("cluster: duplicate member %q in map", mem.ID)
		}
		seen[mem.ID] = true
		u, err := url.Parse(mem.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return fmt.Errorf("cluster: member %q has invalid URL %q", mem.ID, mem.URL)
		}
		switch mem.State {
		case "", StateActive, StateJoining, StateDraining:
		default:
			return fmt.Errorf("cluster: member %q has unknown state %q", mem.ID, mem.State)
		}
		if mem.ID == m.Primary {
			okPrimary = true
		}
	}
	if !okPrimary {
		return fmt.Errorf("cluster: map primary %q is not a member", m.Primary)
	}
	if !verifyMapSig(m, n.cfg.Secret) {
		return errors.New("cluster: map signature mismatch")
	}
	return nil
}

// installMap validates m and, when newer than the installed view,
// makes it this node's membership: rings rebuilt, prober/replicator/
// metrics peer sets reconciled, transition events recorded. A map
// that drops self is accepted only while self is draining — that is
// the decommission completing — and closes Drained().
func (n *Node) installMap(m *ClusterMap) error {
	if err := n.verifyMap(m); err != nil {
		return err
	}
	n.mapMu.Lock()
	defer n.mapMu.Unlock()
	cur := n.view.Load()
	if cur != nil {
		if m.Epoch < cur.cmap.Epoch {
			return errStaleMap
		}
		if m.Epoch == cur.cmap.Epoch {
			if bytes.Equal(m.canonical(), cur.cmap.canonical()) {
				return nil
			}
			// Same epoch, different content: a split publish. Epoch
			// monotonicity arbitrates — whoever publishes next wins.
			return fmt.Errorf("cluster: conflicting map at epoch %d", m.Epoch)
		}
	}
	v := n.buildView(m)
	if !v.inMap && (cur == nil || !cur.inMap || cur.self != StateDraining) {
		return fmt.Errorf("cluster: map epoch %d does not contain self %q", m.Epoch, n.cfg.Self)
	}
	n.view.Store(v)
	n.noteMembershipChange(cur, v)
	n.health.syncPeers(v.peers)
	n.repl.syncPeers(v)
	if n.m != nil {
		n.m.syncPeers(v.peers)
	}
	// Overrides whose target is now the placement-ring owner were
	// finalized into the ring; drop them.
	n.assignMu.Lock()
	for sensor, id := range n.assign {
		if v.place.Owner(sensor) == id {
			delete(n.assign, sensor)
		}
	}
	n.assignMu.Unlock()
	if v.inMap && v.self == StateDraining {
		n.srv.SetDraining()
	}
	if !v.inMap {
		n.drainedOnce.Do(func() { close(n.drained) })
	}
	return nil
}

// noteMembershipChange records flight-recorder events for the diff
// between two installed views. The very first install (boot seed) is
// silent.
func (n *Node) noteMembershipChange(old, cur *memberView) {
	if old == nil {
		return
	}
	ev := n.sys.Events()
	ev.Record(obs.Event{
		Type: "epoch_change",
		Detail: fmt.Sprintf("cluster map epoch %d -> %d (primary %s, %d members)",
			old.cmap.Epoch, cur.cmap.Epoch, cur.cmap.Primary, len(cur.members)),
	})
	for id, mem := range cur.members {
		prev, had := old.members[id]
		switch {
		case !had:
			ev.Record(obs.Event{
				Type:   "member_join",
				Detail: fmt.Sprintf("member %s (%s) joined as %s", id, mem.URL, mem.State),
			})
		case prev.State != StateDraining && mem.State == StateDraining:
			ev.Record(obs.Event{
				Type:     "member_drain",
				Severity: obs.SevWarn,
				Detail:   "member " + id + " is draining",
			})
		}
	}
	for id := range old.members {
		if _, ok := cur.members[id]; !ok {
			ev.Record(obs.Event{Type: "member_leave", Detail: "member " + id + " left the cluster"})
		}
	}
	if n.log != nil {
		n.log.Info("cluster map installed",
			"epoch", cur.cmap.Epoch, "members", len(cur.members), "primary", cur.cmap.Primary)
	}
}

// --- epoch propagation ---

func (n *Node) curView() *memberView { return n.view.Load() }

func (n *Node) epoch() uint64 {
	if v := n.curView(); v != nil {
		return v.cmap.Epoch
	}
	return 0
}

func (n *Node) pullMapAsync(from Member) {
	if !n.pulling.CompareAndSwap(false, true) {
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer n.pulling.Store(false)
		if err := n.fetchMap(from, rpcMapPull, nil); err != nil && n.log != nil {
			n.log.Warn("cluster map pull failed", "from", from.URL, "err", err)
		}
	}()
}

// fetchMap runs an RPC whose answer is a cluster map (a pull, a join)
// and installs it. An answer older than the installed map is not an
// error: something newer arrived in the meantime.
func (n *Node) fetchMap(from Member, rpc peerRPC, body io.Reader) error {
	var m ClusterMap
	if err := n.peerJSON(context.Background(), from, rpc, body, &m); err != nil {
		return err
	}
	if err := n.installMap(&m); err != nil && !errors.Is(err, errStaleMap) {
		return err
	}
	return nil
}

// --- publish ---

// publishMap installs m locally, then pushes it to every member of
// both the old and the new view (a member dropped by the map still
// needs its leave notice). Pushes are asynchronous and best-effort: a
// peer that misses one pulls the map the moment it sees the higher
// epoch on any request, response, or heartbeat.
func (n *Node) publishMap(m *ClusterMap) error {
	old := n.curView()
	if err := n.installMap(m); err != nil {
		return err
	}
	targets := make(map[string]Member)
	if old != nil {
		for id, mem := range old.members {
			targets[id] = mem
		}
	}
	for _, mem := range m.Members {
		targets[mem.ID] = mem
	}
	delete(targets, n.cfg.Self)
	body, err := json.Marshal(m)
	if err != nil {
		return err
	}
	for _, to := range targets {
		to := to
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			if err := n.pushMapTo(to, body); err != nil && n.log != nil {
				n.log.Warn("cluster map push failed", "peer", to.ID, "epoch", m.Epoch, "err", err)
			}
		}()
	}
	return nil
}

func (n *Node) pushMapTo(to Member, body []byte) error {
	err := n.peerJSON(context.Background(), to, rpcMapPush, bytes.NewReader(body), nil)
	if peerStatus(err) == http.StatusConflict {
		return nil // the peer is already at or past this epoch: fine
	}
	return err
}

// --- proposals (primary-only map mutations) ---

// proposeJoin admits a new member in state joining and publishes the
// next epoch. Re-joining with the same id+URL is idempotent.
func (n *Node) proposeJoin(id, rawURL string) (*ClusterMap, error) {
	u, err := url.Parse(rawURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("invalid join URL %q", rawURL)
	}
	clean := strings.TrimSuffix(u.String(), "/")
	n.proposeMu.Lock()
	defer n.proposeMu.Unlock()
	v := n.curView()
	if v == nil {
		return nil, errors.New("no cluster map installed")
	}
	if mem, ok := v.members[id]; ok {
		if mem.URL == clean {
			return v.cmap, nil
		}
		return nil, fmt.Errorf("member %q already exists at %s", id, mem.URL)
	}
	m := v.cmap.clone()
	m.Members = append(m.Members, Member{ID: id, URL: clean, State: StateJoining})
	sort.Slice(m.Members, func(i, j int) bool { return m.Members[i].ID < m.Members[j].ID })
	m.Epoch++
	m.Primary = n.cfg.Self
	m.Sig = signMap(m, n.cfg.Secret)
	if err := n.publishMap(m); err != nil {
		return nil, err
	}
	if n.log != nil {
		n.log.Info("member joining", "id", id, "url", clean, "epoch", m.Epoch)
	}
	n.reb.kickNow()
	return m, nil
}

// proposeDrain flips a member to draining and publishes the next
// epoch. Draining an already-draining member is idempotent; draining
// the last active member is refused.
func (n *Node) proposeDrain(id string) (*ClusterMap, error) {
	n.proposeMu.Lock()
	defer n.proposeMu.Unlock()
	v := n.curView()
	if v == nil {
		return nil, errors.New("no cluster map installed")
	}
	mem, ok := v.members[id]
	if !ok {
		return nil, fmt.Errorf("unknown member %q", id)
	}
	if mem.State == StateDraining {
		return v.cmap, nil
	}
	active := 0
	for _, other := range v.members {
		if other.ID != id && v.stateOf(other.ID) == StateActive {
			active++
		}
	}
	if active == 0 {
		return nil, errors.New("cannot drain the last active member")
	}
	m := v.cmap.clone()
	for i := range m.Members {
		if m.Members[i].ID == id {
			m.Members[i].State = StateDraining
		}
	}
	m.Epoch++
	m.Primary = n.cfg.Self
	m.Sig = signMap(m, n.cfg.Secret)
	if err := n.publishMap(m); err != nil {
		return nil, err
	}
	if n.log != nil {
		n.log.Info("member draining", "id", id, "epoch", m.Epoch)
	}
	n.reb.kickNow()
	return m, nil
}

// proposeFinalize completes a rebalance: joining members become
// active, draining members leave the map. Only called by the
// rebalancer once the plan is empty and nothing is blocked — at that
// point every sensor's override already matches the new ring, so the
// placement flip does not move any routing.
func (n *Node) proposeFinalize() error {
	n.proposeMu.Lock()
	defer n.proposeMu.Unlock()
	v := n.curView()
	if v == nil || !viewNeedsRebalance(v) {
		return nil
	}
	m := v.cmap.clone()
	out := m.Members[:0]
	for _, mem := range m.Members {
		if mem.State == StateDraining {
			continue
		}
		mem.State = StateActive
		out = append(out, mem)
	}
	m.Members = out
	if max := len(m.Members) - 1; m.Replicas > max {
		m.Replicas = max
	}
	m.Epoch++
	m.Primary = n.cfg.Self
	m.Sig = signMap(m, n.cfg.Secret)
	if err := n.publishMap(m); err != nil {
		return err
	}
	if n.log != nil {
		n.log.Info("rebalance finalized", "epoch", m.Epoch, "members", len(m.Members))
	}
	return nil
}

// --- endpoints ---

// ClusterMapResponse is GET /cluster/map: the installed map plus this
// node's locally computed primary.
type ClusterMapResponse struct {
	ClusterMap
	ElectedPrimary string `json:"elected_primary,omitempty"`
}

func (n *Node) handleMapGet(w http.ResponseWriter, _ *http.Request) {
	v := n.curView()
	if v == nil {
		writeError(w, http.StatusServiceUnavailable, "no cluster map installed")
		return
	}
	writeJSON(w, http.StatusOK, ClusterMapResponse{ClusterMap: *v.cmap, ElectedPrimary: n.electedPrimary()})
}

func (n *Node) handleMapPost(w http.ResponseWriter, r *http.Request) {
	var m ClusterMap
	if !decodeBody(w, r, &m) {
		return
	}
	if err := n.installMap(&m); err != nil {
		if errors.Is(err, errStaleMap) {
			writeError(w, http.StatusConflict,
				fmt.Sprintf("pushed epoch %d is older than installed epoch %d", m.Epoch, n.epoch()))
		} else {
			writeError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"epoch": m.Epoch})
}

// JoinRequest is POST /cluster/join: a new member asks to be admitted.
type JoinRequest struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// DecommissionRequest is POST /cluster/decommission. Node defaults to
// the member that received the request.
type DecommissionRequest struct {
	Node string `json:"node,omitempty"`
}

// hopHeader marks a join/decommission request already proxied once, so
// a primary disagreement cannot bounce it around the cluster.
const hopHeader = "X-Smiler-Proxied"

func (n *Node) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.ID == "" || req.URL == "" {
		writeError(w, http.StatusBadRequest, "join needs id and url")
		return
	}
	prim := n.electedPrimary()
	if prim == "" {
		writeError(w, http.StatusServiceUnavailable, "no primary elected")
		return
	}
	if prim != n.cfg.Self {
		n.proxyToPrimary(w, r, prim, rpcJoin, req)
		return
	}
	m, err := n.proposeJoin(req.ID, req.URL)
	if err != nil {
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, m)
}

func (n *Node) handleDecommission(w http.ResponseWriter, r *http.Request) {
	var req DecommissionRequest // an empty body means "this node"
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return
	}
	if req.Node == "" {
		req.Node = n.cfg.Self
	}
	prim := n.electedPrimary()
	if prim == "" {
		writeError(w, http.StatusServiceUnavailable, "no primary elected")
		return
	}
	if prim != n.cfg.Self {
		n.proxyToPrimary(w, r, prim, rpcDecommission, req)
		return
	}
	m, err := n.proposeDrain(req.Node)
	if err != nil {
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// proxyToPrimary forwards a membership request to the elected primary
// (operators may poke any node). One hop only.
func (n *Node) proxyToPrimary(w http.ResponseWriter, r *http.Request, prim string, rpc peerRPC, body any) {
	if r.Header.Get(hopHeader) != "" {
		writeError(w, http.StatusServiceUnavailable, "no stable primary; retry")
		return
	}
	mem, ok := n.member(prim)
	if !ok {
		writeError(w, http.StatusServiceUnavailable, "primary "+prim+" not in local map")
		return
	}
	resp, err := n.peerCall(r.Context(), mem, rpc, jsonBody(body), hopHeader, "1")
	if err != nil {
		writeError(w, http.StatusBadGateway, "proxy to primary "+prim+" failed: "+err.Error())
		return
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, io.LimitReader(resp.Body, rpc.cap))
}

// handleSensorList is GET /cluster/sensors: the sensor ids resident on
// this node (owned or replicated) — the rebalancer's discovery input.
func (n *Node) handleSensorList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"node": n.cfg.Self, "sensors": n.sys.Sensors()})
}

// --- join & decommission client paths ---

// joinLoop runs on a node booted with Config.JoinURL: it asks the
// existing cluster to admit it until a map containing self (and the
// rest of the cluster) is installed.
func (n *Node) joinLoop() {
	defer n.wg.Done()
	via := Member{URL: strings.TrimSuffix(n.cfg.JoinURL, "/")}
	for {
		if n.tryJoin(via) {
			return
		}
		select {
		case <-n.done:
			return
		case <-time.After(300 * time.Millisecond):
		}
	}
}

// joined reports whether the installed map holds self beside others.
func (n *Node) joined() bool {
	v := n.curView()
	return v != nil && v.inMap && len(v.members) > 1
}

func (n *Node) tryJoin(via Member) bool {
	if n.joined() {
		return true // a pushed map admitted us already
	}
	err := n.fetchMap(via, rpcJoin, jsonBody(JoinRequest{ID: n.cfg.Self, URL: n.selfURL}))
	if n.log != nil {
		if err != nil {
			n.log.Warn("cluster join attempt failed", "via", via.URL, "err", err)
		} else if n.joined() {
			n.log.Info("joined cluster", "epoch", n.epoch(), "members", len(n.curView().members))
		}
	}
	return err == nil && n.joined()
}

// Decommission asks the cluster to drain the named member (self when
// id is empty). The flip is routed to the elected primary; progress
// is observable via Drained() on the draining node.
func (n *Node) Decommission(id string) error {
	if id == "" {
		id = n.cfg.Self
	}
	prim := n.electedPrimary()
	if prim == "" {
		return errors.New("cluster: no primary elected")
	}
	if prim == n.cfg.Self {
		_, err := n.proposeDrain(id)
		return err
	}
	mem, ok := n.member(prim)
	if !ok {
		return fmt.Errorf("cluster: primary %q not in local map", prim)
	}
	err := n.peerJSON(context.Background(), mem, rpcDecommission,
		jsonBody(DecommissionRequest{Node: id}), nil, hopHeader, "1")
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}

// Drained is closed once this node has left the cluster map: its drain
// finished and the primary published a map without it. The process can
// then exit cleanly.
func (n *Node) Drained() <-chan struct{} { return n.drained }
