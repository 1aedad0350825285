package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"smiler/internal/obs"
)

// MigrateRequest is POST /cluster/migrate on the sensor's current
// owner: move the sensor to the named target node.
type MigrateRequest struct {
	Sensor string `json:"sensor"`
	Target string `json:"target"`
}

// MigrateResponse reports a completed migration.
type MigrateResponse struct {
	Sensor string `json:"sensor"`
	From   string `json:"from"`
	To     string `json:"to"`
	Seq    uint64 `json:"seq"` // replication sequence the shipped snapshot covers
}

// assignRequest is POST /cluster/assign: an ownership override
// (migration cutover) being installed on every member.
type assignRequest struct {
	Sensor string `json:"sensor"`
	Node   string `json:"node"`
}

// handleMigrate moves one sensor from this node to a live target:
//
//  1. quiesce — new mutations 503 (clients retry under idempotent
//     backoff), the ingestion pipeline drains, so state stops moving;
//  2. snapshot — the sensor's checkpoint bytes plus the replication
//     sequence they cover, captured atomically under the quiesce;
//  3. ship — POST the snapshot to the target's /cluster/restore; the
//     restore is bit-exact (the same checkpoint encoding and CRC as
//     the durability layer), and the target's replication cursor starts
//     at the covered sequence, so any later WAL-tail frames replay
//     exactly once;
//  4. cutover — install the ownership override locally, then on every
//     member (best effort: a member that misses it still forwards via
//     this node, whose override is authoritative for its view);
//  5. resume — unpause; requests now forward to the new owner.
func (n *Node) handleMigrate(w http.ResponseWriter, r *http.Request) {
	var req MigrateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Sensor == "" || req.Target == "" {
		writeError(w, http.StatusBadRequest, "need sensor and target")
		return
	}
	target, ok := n.member(req.Target)
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown target node %q", req.Target))
		return
	}
	if req.Target == n.cfg.Self {
		writeError(w, http.StatusBadRequest, "target is already this node")
		return
	}
	owner, promoted := n.route(req.Sensor)
	if owner.ID != n.cfg.Self || promoted {
		writeError(w, http.StatusConflict,
			fmt.Sprintf("this node is not the active owner of %q (owner %s)", req.Sensor, owner.ID))
		return
	}
	if !n.sys.HasSensor(req.Sensor) {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown sensor %q", req.Sensor))
		return
	}
	if !n.health.isUp(req.Target) {
		writeError(w, http.StatusServiceUnavailable, fmt.Sprintf("target %s is down", req.Target))
		return
	}

	// Quiesce + snapshot. The pause is held through the cutover so no
	// mutation can apply locally after the snapshot and before requests
	// start forwarding to the target.
	n.pauseSensor(req.Sensor)
	defer n.unpauseSensor(req.Sensor)
	snap, seq, err := n.captureSensor(req.Sensor)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "snapshot: "+err.Error())
		return
	}
	if err := n.shipSnapshot(r.Context(), target, snap, seq); err != nil {
		writeError(w, http.StatusBadGateway, "shipping snapshot: "+err.Error())
		return
	}

	// Cutover: local override first (authoritative for requests landing
	// here), then broadcast.
	n.setAssign(req.Sensor, req.Target)
	n.broadcastAssign(req.Sensor, req.Target)
	n.m.migrations.Inc()
	tc, _ := obs.TraceFromContext(r.Context())
	n.sys.Events().Record(obs.Event{
		Type: "migration_cutover", Sensor: req.Sensor, TraceID: tc.ID,
		Detail: "to " + req.Target + " at seq " + strconv.FormatUint(seq, 10),
	})
	if n.log != nil {
		n.log.Info("sensor migrated", "sensor", req.Sensor, "to", req.Target, "seq", seq)
	}
	writeJSON(w, http.StatusOK, MigrateResponse{
		Sensor: req.Sensor, From: n.cfg.Self, To: req.Target, Seq: seq,
	})
}

func (n *Node) setAssign(sensor, node string) {
	n.assignMu.Lock()
	n.assign[sensor] = node
	n.assignMu.Unlock()
}

// broadcastAssign installs the override on every other member (best
// effort; a miss degrades to an extra forwarding hop through us).
func (n *Node) broadcastAssign(sensor, node string) {
	body, _ := json.Marshal(assignRequest{Sensor: sensor, Node: node})
	for _, id := range n.peerIDs() {
		member, _ := n.member(id)
		err := n.peerJSON(context.Background(), member, rpcAssign, bytes.NewReader(body), nil)
		if err != nil && n.log != nil {
			n.log.Warn("assign broadcast failed", "peer", id, "sensor", sensor, "err", err)
		}
	}
}

// shipSnapshot is the one sender of POST /cluster/restore: a sensor's
// checkpoint bytes, tagged with the replication sequence they cover,
// for a migration target or a follower that asked to resync.
func (n *Node) shipSnapshot(ctx context.Context, to Member, snap []byte, seq uint64) error {
	err := n.peerJSON(ctx, to, rpcRestore, bytes.NewReader(snap), nil,
		replSeqHeader, strconv.FormatUint(seq, 10))
	if err != nil {
		n.m.replErrs.Inc()
	}
	return err
}

// handleAssign installs an ownership override pushed by a migrating
// owner.
func (n *Node) handleAssign(w http.ResponseWriter, r *http.Request) {
	var req assignRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Sensor == "" || req.Node == "" {
		writeError(w, http.StatusBadRequest, "need sensor and node")
		return
	}
	if _, ok := n.member(req.Node); !ok {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown node %q", req.Node))
		return
	}
	n.setAssign(req.Sensor, req.Node)
	tc, _ := obs.TraceFromContext(r.Context())
	n.sys.Events().Record(obs.Event{
		Type: "migration_assign", Sensor: req.Sensor, TraceID: tc.ID,
		Detail: "owner override -> " + req.Node,
	})
	writeJSON(w, http.StatusOK, map[string]string{"sensor": req.Sensor, "node": req.Node})
}
