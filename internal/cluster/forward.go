package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"smiler/internal/ingest"
	"smiler/internal/obs"
	"smiler/internal/server"
)

// forwardedHeader marks a request that already went through one
// ownership gate. A node receiving it serves locally no matter what
// its own view says — two nodes with momentarily different health
// views must not bounce a request between them forever.
const forwardedHeader = "X-Smiler-Forwarded"

// ownerHeader names the node that served (or should serve) the
// sensor; server.OwnerURLHeader carries its base URL for ring-aware
// clients.
const ownerHeader = "X-Smiler-Owner"

// gate is the ownership middleware installed in front of the server's
// route table. It resolves the sensor a request targets (if any),
// then serves locally, forwards to the owner, or answers as a
// promoted replica.
func (n *Node) gate(w http.ResponseWriter, r *http.Request, next http.Handler) {
	sensor, bodyCopy, ok := n.extractSensor(w, r)
	if !ok {
		return // extractSensor already answered (bad body)
	}
	if sensor == "" {
		if r.Method == http.MethodPost && r.URL.Path == "/observations" {
			// The gate handles bulk before local routing, so it must route
			// through the idempotency cache itself: the entry node dedupes
			// the whole request under the client's key, and a forwarded
			// partition dedupes under the derived key the sender attached.
			n.srv.ServeIdempotent(w, r, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				n.bulkObserve(w, r, bodyCopy)
			}))
			return
		}
		next.ServeHTTP(w, r) // not sensor-scoped: always local
		return
	}
	owner, promoted := n.route(sensor)
	if owner.ID != n.cfg.Self {
		if r.Header.Get(forwardedHeader) != "" {
			// Health-view skew: the sender believes every node ahead of us
			// in the sensor's preference list is down; we see one up, so we
			// are not the primary. Answer as a promoted replica does —
			// never bounce the request back, and never apply a write to a
			// copy the primary will not see.
			n.setOwnerHeaders(w, Member{ID: n.cfg.Self, URL: n.selfURL})
			n.serveAsReplica(w, r, sensor, next)
			return
		}
		n.forward(w, r, owner, bodyCopy, sensor)
		return
	}
	n.setOwnerHeaders(w, owner)
	if promoted {
		n.serveAsReplica(w, r, sensor, next)
		return
	}
	next.ServeHTTP(w, r)
}

func (n *Node) setOwnerHeaders(w http.ResponseWriter, owner Member) {
	w.Header().Set(ownerHeader, owner.ID)
	w.Header().Set(server.OwnerURLHeader, owner.URL)
}

// extractSensor pulls the target sensor id out of the request: the
// path for /sensors/{id}..., the body for POST /sensors. For
// body-carrying routes the body is read fully and both returned and
// re-installed on the request. ok=false means an error response was
// already written.
func (n *Node) extractSensor(w http.ResponseWriter, r *http.Request) (sensor string, body []byte, ok bool) {
	path := r.URL.Path
	if rest, found := strings.CutPrefix(path, "/sensors/"); found && rest != "" {
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		return rest, nil, true
	}
	if (path == "/sensors" && r.Method == http.MethodPost) ||
		(path == "/observations" && r.Method == http.MethodPost) {
		b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 256<<20))
		if err != nil {
			writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
			return "", nil, false
		}
		r.Body = io.NopCloser(bytes.NewReader(b))
		if path == "/observations" {
			return "", b, true // routed per-item by bulkObserve
		}
		var req server.AddSensorRequest
		if err := json.Unmarshal(b, &req); err != nil || req.ID == "" {
			// Let the local handler produce its usual 400.
			return "", b, true
		}
		return req.ID, b, true
	}
	return "", nil, true
}

// forward proxies the request to the owner, marking it forwarded and
// preserving the idempotency key, and relays the response verbatim
// (including the owner headers the owner set). The distributed trace
// context is stamped onto the outbound hop (hop counter incremented),
// and the hop itself is recorded as a trace on this node — with the
// owner's phase spans inlined from its compact span-summary header —
// so GET /debug/trace/{sensor} on the entry node shows the full
// cross-node picture of a forwarded forecast.
func (n *Node) forward(w http.ResponseWriter, r *http.Request, owner Member, body []byte, sensor string) {
	start := time.Now()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	} else if r.Body != nil {
		rd = r.Body
	}
	rpc := rpcForward
	// EscapedPath, not Path: a percent-encoded sensor id ("a%20b",
	// "a%2Fb") must reach the owner byte-identical, not re-decoded.
	rpc.method, rpc.path, rpc.ctype = r.Method, r.URL.EscapedPath(), r.Header.Get("Content-Type")
	if r.URL.RawQuery != "" {
		rpc.path += "?" + r.URL.RawQuery
	}
	tc, _ := obs.TraceFromContext(r.Context())
	resp, err := n.peerCall(r.Context(), owner, rpc, rd,
		forwardedHeader, "1", server.IdempotencyKeyHeader, r.Header.Get(server.IdempotencyKeyHeader))
	if err != nil {
		n.m.forwardErrs.Inc()
		n.recordForwardTrace(sensor, tc, owner, start, nil, err)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusBadGateway, "forward to "+owner.ID+" failed: "+err.Error())
		return
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", ownerHeader, server.OwnerURLHeader, server.IdempotentReplayHeader, "Retry-After", obs.SpanSummaryHeader} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	n.m.forwards(owner.ID).Inc()
	n.m.forwardSec.Observe(time.Since(start).Seconds())
	n.recordForwardTrace(sensor, tc, owner, start, obs.DecodeSpans(resp.Header.Get(obs.SpanSummaryHeader)), nil)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// recordForwardTrace records the entry node's view of one forwarded
// request: a "forward" hop span covering the round trip, followed by
// the owner's phase spans (decoded from its span-summary response
// header) inlined with the owner id so the two sides are attributable
// in one trace. A no-op when tracing is disabled or the request
// carried no trace context.
func (n *Node) recordForwardTrace(sensor string, tc obs.TraceContext, owner Member, start time.Time, ownerSpans []obs.Span, fwdErr error) {
	store := n.sys.Traces()
	if store == nil || sensor == "" || !tc.Valid() {
		return
	}
	tr := obs.NewTrace(sensor)
	tr.SetContext(tc)
	tr.AddSpan("forward", "to "+owner.ID, 0, time.Since(start))
	for _, sp := range ownerSpans {
		tr.AddSpan(sp.Name, "owner "+owner.ID,
			time.Duration(sp.OffsetS*float64(time.Second)),
			time.Duration(sp.Duration*float64(time.Second)))
	}
	tr.Finish(fwdErr)
	store.Add(tr)
}

// --- promoted replica serving ---

// serveAsReplica answers for a sensor whose primary is down, from
// this node's replica state. Forecast reads are served tagged
// Degraded: "replica" while the staleness bound holds; everything
// else (mutations, and reads once too stale) answers 503 — writes
// wait for the primary, so a returning primary has not missed any.
func (n *Node) serveAsReplica(w http.ResponseWriter, r *http.Request, sensor string, next http.Handler) {
	pref := n.preference(sensor)
	primary := pref[0]
	if r.Method != http.MethodGet {
		n.m.writeRejects.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int(n.cfg.ProbeInterval/time.Second)+1))
		writeError(w, http.StatusServiceUnavailable,
			"sensor "+sensor+" owner "+primary+" is down; mutations are rejected on replicas, retry")
		return
	}
	if stale := n.repl.sinceContact(primary); stale > n.cfg.MaxStaleness {
		n.m.staleRejects.Inc()
		writeError(w, http.StatusServiceUnavailable,
			"replica for "+sensor+" exceeded the staleness bound ("+stale.Truncate(time.Second).String()+")")
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/sensors/")
	verb := ""
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		verb = rest[i+1:]
	}
	if verb != "forecast" && verb != "forecasts" {
		// Non-forecast reads (ensemble, etc.) serve from local replica
		// state untagged; they are diagnostics, not predictions.
		next.ServeHTTP(w, r)
		return
	}
	// Both forecast routes are the server's own handler; the hook tags
	// every answer and turns a prediction failure into a retryable 503.
	start := time.Now()
	n.srv.ServeForecast(w, r, sensor, func(out []server.ForecastResponse, err error) int {
		n.recordFailoverTrace(r, sensor, start, err)
		if err != nil {
			return http.StatusServiceUnavailable
		}
		n.m.promotedServe.Inc()
		for i := range out {
			out[i].Degraded = true
			out[i].DegradedReason = "replica"
		}
		return 0
	})
}

// recordFailoverTrace records a "failover_serve" hop span for a
// degraded read served in the failed primary's stead, so the entry
// node's trace view attributes the answer to the promoted replica.
func (n *Node) recordFailoverTrace(r *http.Request, sensor string, start time.Time, predErr error) {
	store := n.sys.Traces()
	if store == nil {
		return
	}
	tc, ok := obs.TraceFromContext(r.Context())
	if !ok || !tc.Valid() {
		return
	}
	primary := n.preference(sensor)[0]
	tr := obs.NewTrace(sensor)
	tr.SetContext(tc)
	tr.AddSpan("failover_serve", "for primary "+primary, 0, time.Since(start))
	tr.Finish(predErr)
	store.Add(tr)
}

// --- bulk observations ---

// bulkObserve partitions a multi-sensor batch by effective owner: the
// local partition goes through the pipeline, remote partitions are
// POSTed to their owners (with derived idempotency keys so each
// partition dedupes independently on retry), and per-item outcomes
// are merged back under the caller's original indices. Only a sensor's
// primary applies its items: one this node would apply as a replica
// fails, like a single observe does.
func (n *Node) bulkObserve(w http.ResponseWriter, r *http.Request, body []byte) {
	var req server.BulkObserveRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return
	}
	if len(req.Observations) == 0 {
		writeError(w, http.StatusBadRequest, "no observations")
		return
	}
	type part struct {
		owner   Member
		obs     []ingest.Observation
		indices []int
	}
	key := r.Header.Get(server.IdempotencyKeyHeader)
	forwarded := r.Header.Get(forwardedHeader) != ""
	parts := make(map[string]*part)
	var merged ingest.BulkResult
	for i, o := range req.Observations {
		owner, promoted := n.route(o.Sensor)
		local := owner.ID == n.cfg.Self
		if (forwarded || local) && (!local || promoted) {
			// This node would apply the item but is not its sensor's
			// primary (promoted, or a sender's health view disagrees with
			// ours): a replica takes no writes, as in serveAsReplica.
			n.m.writeRejects.Inc()
			merged.Failed = append(merged.Failed, ingest.BulkFailure{
				Index: i, ID: o.Sensor,
				Error: "sensor " + o.Sensor + ": this node is a replica of primary " +
					n.preference(o.Sensor)[0] + "; mutations are rejected on replicas, retry",
			})
			continue
		}
		p := parts[owner.ID]
		if p == nil {
			p = &part{owner: owner}
			parts[owner.ID] = p
		}
		p.obs = append(p.obs, o)
		p.indices = append(p.indices, i)
	}
	for id, p := range parts {
		var res ingest.BulkResult
		switch {
		case forwarded:
			// Already dedupe-gated at this node's entry under the derived
			// key the sender attached.
			res = n.srv.Pipeline().ObserveBulk(p.obs)
		case id == n.cfg.Self:
			res = n.applyLocalPartition(r, p.obs, key)
		default:
			var err error
			res, err = n.forwardBulk(r, p.owner, p.obs, key)
			if err != nil {
				n.m.forwardErrs.Inc()
				// The whole partition failed in transit: report every item.
				for j, idx := range p.indices {
					merged.Failed = append(merged.Failed, ingest.BulkFailure{
						Index: idx, ID: p.obs[j].Sensor,
						Error: "forward to " + id + " failed: " + err.Error(),
					})
				}
				continue
			}
		}
		merged.Accepted += res.Accepted
		for _, f := range res.Failed {
			// Remap the partition-local index back to the caller's.
			if f.Index >= 0 && f.Index < len(p.indices) {
				f.Index = p.indices[f.Index]
			}
			merged.Failed = append(merged.Failed, f)
		}
	}
	writeJSON(w, http.StatusOK, merged)
}

// applyLocalPartition applies the partition this node owns. With an
// idempotency key the application runs through the server's idem cache
// under the same derived key a forwarded copy of this partition would
// carry (key/self): a client retry that re-enters the cluster at a
// different node forwards our partition back to us under that key and
// replays this result instead of double-applying.
func (n *Node) applyLocalPartition(r *http.Request, obs []ingest.Observation, key string) ingest.BulkResult {
	if key == "" {
		return n.srv.Pipeline().ObserveBulk(obs)
	}
	req := r.Clone(r.Context()) // the client's POST /observations, re-keyed
	req.Header.Set(server.IdempotencyKeyHeader, key+"/"+n.cfg.Self)
	var rec bufferedResponse
	n.srv.ServeIdempotent(&rec, req, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, n.srv.Pipeline().ObserveBulk(obs))
	}))
	var res ingest.BulkResult
	if err := json.Unmarshal(rec.buf.Bytes(), &res); err != nil {
		// The cached body is always a BulkResult we wrote ourselves;
		// anything else means the apply never produced one.
		for i, o := range obs {
			res.Failed = append(res.Failed, ingest.BulkFailure{
				Index: i, ID: o.Sensor, Error: "idempotent apply: " + err.Error(),
			})
		}
	}
	return res
}

// bufferedResponse is an in-memory http.ResponseWriter for routing an
// internal apply through the idempotency cache.
type bufferedResponse struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header {
	if b.header == nil {
		b.header = make(http.Header)
	}
	return b.header
}

func (b *bufferedResponse) WriteHeader(code int) {
	if b.status == 0 {
		b.status = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.status == 0 {
		b.status = http.StatusOK
	}
	return b.buf.Write(p)
}

// forwardBulk ships one owner's partition of a bulk request.
func (n *Node) forwardBulk(r *http.Request, owner Member, items []ingest.Observation, key string) (ingest.BulkResult, error) {
	if key != "" {
		key += "/" + owner.ID // derived key: each partition dedupes independently on retry
	}
	var res ingest.BulkResult
	err := n.peerJSON(r.Context(), owner, rpcForwardBulk, jsonBody(server.BulkObserveRequest{Observations: items}), &res,
		forwardedHeader, "1", server.IdempotencyKeyHeader, key)
	if err == nil {
		n.m.forwards(owner.ID).Inc()
	}
	return res, err
}
