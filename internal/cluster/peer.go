// The peer protocol, written once.
//
// Every request this package sends to another node goes through
// peerCall, and every /cluster/* request it receives goes through
// servePeer. The two tables in this file — peerRPCs for the sending
// side, peerRoutes for the receiving side — are the whole wire
// protocol: docs/CLUSTER.md's "Peer protocol" table is transcribed
// from them (peer_test.go checks the transcription), and a guard test
// fails when a request is built, sent or mounted anywhere else.
// peerCall is also the one transport seam: a fault rule on
// fault.PointClusterPeer partitions every kind of call at once.
package cluster

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"smiler/internal/fault"
	"smiler/internal/obs"
)

// Headers every peer request carries (peerHeaders).
const (
	// fromHeader names the sending node.
	fromHeader = "X-Smiler-From"
	// secretHeader carries the shared cluster secret when Config.Secret
	// is set.
	secretHeader = "X-Smiler-Cluster-Secret"
)

// Body caps. A cap on a peerRPC bounds the response this node will
// read; a cap on a peerRoute bounds the request body it will accept.
const (
	// capAck fits every small acknowledgement and error body.
	capAck = 4 << 10
	// capReplicateAck fits a follower's answer to a replication batch,
	// which names at most maxBatchFrames sensors to resync.
	capReplicateAck = 1 << 20
	// capBulk bounds whole-state and whole-batch bodies: a snapshot
	// POSTed to /cluster/restore is one sensor's full checkpoint
	// envelope (8 bytes per history point plus index and model state),
	// a /cluster/replicate batch is up to maxBatchFrames WAL frames of
	// which a registration frame carries a full history, and a bulk
	// partition answers one failure entry per item. It equals the cap
	// the gate puts on client bulk bodies.
	capBulk = 256 << 20
)

// --- sending side ---

// peerRPC is one kind of node-to-node call.
type peerRPC struct {
	name   string // row key in docs/CLUSTER.md
	method string
	path   string
	ctype  string // request Content-Type ("" = no body)
	point  string // named fault point, checked before fault.PointClusterPeer ("" = none)
	cap    int64  // response bytes peerJSON accepts (0 = the caller streams the body)
	sender string // who sends it, for the docs table
}

const (
	ctJSON  = "application/json"
	ctBytes = "application/octet-stream"
)

// The client half of the protocol. rpcForward's method, path and
// content type are the relayed client request's own.
var (
	rpcRestore     = peerRPC{"restore", http.MethodPost, "/cluster/restore", ctBytes, fault.PointClusterReplicateSend, capAck, "shipSnapshot: resync"}
	rpcReplicate   = peerRPC{"replicate", http.MethodPost, "/cluster/replicate", ctBytes, fault.PointClusterReplicateSend, capReplicateAck, "owner, per batch and heartbeat"}
	rpcForward     = peerRPC{"forward", "", "", "", fault.PointClusterForward, 0, "gate, for a sensor owned elsewhere"}
	rpcForwardBulk = peerRPC{"forward-bulk", http.MethodPost, "/observations", ctJSON, fault.PointClusterForward, capBulk, "gate, per remote bulk partition"}
	rpcProbe       = peerRPC{"probe", http.MethodGet, "/readyz", "", fault.PointClusterProbe, capAck, "prober, every ProbeInterval"}
)

// peerRPCs lists every call kind, for the docs and partition tests.
var peerRPCs = []peerRPC{rpcRestore, rpcReplicate, rpcForward, rpcForwardBulk, rpcProbe}

// checkPeerFault consults a cluster fault point twice: once bare and
// once suffixed ":<peer>", so tests can fail the path toward a single
// peer (a partition) or toward everyone.
func checkPeerFault(point, peer string) error {
	if err := fault.Check(point); err != nil {
		return err
	}
	return fault.Check(point + ":" + peer)
}

// peerHeaders stamps an outbound intra-cluster request with this
// node's identity and, when configured, the shared secret.
func (n *Node) peerHeaders(req *http.Request) {
	req.Header.Set(fromHeader, n.cfg.Self)
	if n.cfg.Secret != "" {
		req.Header.Set(secretHeader, n.cfg.Secret)
	}
}

// peerCall sends one request to another node and hands back the live
// response; the caller closes its body. Every call does the same
// things in the same order: the RPC's named fault point, the per-peer
// partition point, peer headers, trace-context propagation (one hop
// deeper), the caller's extra headers (key, value pairs; empty values
// are skipped), and the round trip.
func (n *Node) peerCall(ctx context.Context, to Member, rpc peerRPC, body io.Reader, kv ...string) (*http.Response, error) {
	if rpc.point != "" {
		if err := checkPeerFault(rpc.point, to.ID); err != nil {
			return nil, err
		}
	}
	if err := checkPeerFault(fault.PointClusterPeer, to.ID); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, rpc.method, to.URL+rpc.path, body)
	if err != nil {
		return nil, err
	}
	n.peerHeaders(req)
	if tc, ok := obs.TraceFromContext(ctx); ok {
		req.Header.Set(obs.TraceHeader, tc.Next().HeaderValue())
	}
	if rpc.ctype != "" {
		req.Header.Set("Content-Type", rpc.ctype)
	}
	for i := 0; i+1 < len(kv); i += 2 {
		if kv[i+1] != "" {
			req.Header.Set(kv[i], kv[i+1])
		}
	}
	return n.hc.Do(req)
}

// peerStatusError is a peer's non-200 answer.
type peerStatusError struct {
	rpc    string
	status int
	body   []byte // the answer, within the RPC's cap
}

func (e *peerStatusError) Error() string {
	return fmt.Sprintf("%s answered HTTP %d: %s", e.rpc, e.status, bytes.TrimSpace(e.body))
}

// peerJSON is peerCall for callers that want the whole answer: the
// body is read up to the RPC's cap — one byte more is an error, never
// a partial decode — anything but 200 comes back as a
// *peerStatusError carrying the body, and a 200 is decoded into out
// (nil = discard).
func (n *Node) peerJSON(ctx context.Context, to Member, rpc peerRPC, body io.Reader, out any, kv ...string) error {
	resp, err := n.peerCall(ctx, to, rpc, body, kv...)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, rpc.cap+1))
	if err != nil {
		return fmt.Errorf("%s: reading response: %w", rpc.name, err)
	}
	if int64(len(data)) > rpc.cap {
		return fmt.Errorf("%s: response exceeds %d bytes", rpc.name, rpc.cap)
	}
	if resp.StatusCode != http.StatusOK {
		return &peerStatusError{rpc: rpc.name, status: resp.StatusCode, body: data}
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s: decoding response: %w", rpc.name, err)
	}
	return nil
}

// jsonBody marshals a request body this package defines; such values
// always encode.
func jsonBody(v any) io.Reader {
	b, _ := json.Marshal(v)
	return bytes.NewReader(b)
}

// --- receiving side ---

// authClass is what a /cluster/* route demands of its caller.
type authClass int

const (
	// authOpen routes are client-facing reads: they trust nothing the
	// caller sent.
	authOpen authClass = iota
	// authPeer routes require the shared secret when one is configured,
	// and X-Smiler-From naming another member. Without a secret that
	// only stops stray API clients from overwriting sensor state — any
	// sender can claim a member id — so the secret, or keeping the port
	// off the client network, is the real boundary (docs/CLUSTER.md,
	// Security).
	authPeer
)

func (a authClass) String() string { return [...]string{"open", "peer"}[a] }

// peerRoute is one mounted (path, method).
type peerRoute struct {
	path    string
	method  string
	auth    authClass
	bodyCap int64 // request body cap (0 = the route reads no body)
	handle  func(*Node, http.ResponseWriter, *http.Request)
}

// peerRoutes is the server half of the protocol.
var peerRoutes = []peerRoute{
	{"/cluster/ring", http.MethodGet, authOpen, 0, (*Node).handleRing},
	{"/cluster/health", http.MethodGet, authOpen, 0, (*Node).handleHealth},
	{"/cluster/replicate", http.MethodPost, authPeer, capBulk, (*Node).handleReplicate},
	{"/cluster/restore", http.MethodPost, authPeer, capBulk, (*Node).handleRestore},
}

// mountPeerRoutes mounts every path of peerRoutes behind servePeer.
func (n *Node) mountPeerRoutes() {
	for _, rt := range peerRoutes {
		n.srv.Handle(rt.path, func(w http.ResponseWriter, r *http.Request) { n.servePeer(&rt, w, r) })
	}
}

// servePeer is the one prologue of every /cluster/* request, in one
// fixed order: method, shared secret, membership, body cap — then the
// route's own logic.
func (n *Node) servePeer(rt *peerRoute, w http.ResponseWriter, r *http.Request) {
	if r.Method != rt.method {
		writeError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	if rt.auth == authPeer {
		if n.cfg.Secret != "" &&
			subtle.ConstantTimeCompare([]byte(r.Header.Get(secretHeader)), []byte(n.cfg.Secret)) != 1 {
			writeError(w, http.StatusForbidden, "missing or wrong "+secretHeader+" header")
			return
		}
		from := r.Header.Get(fromHeader)
		if _, ok := n.view.members[from]; !ok || from == n.cfg.Self {
			writeError(w, http.StatusForbidden,
				"cluster endpoint requires a known peer "+fromHeader+" header")
			return
		}
	}
	if rt.bodyCap > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, rt.bodyCap)
	}
	rt.handle(n, w, r)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
