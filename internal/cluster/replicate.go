package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"smiler/internal/memsys"
	"smiler/internal/obs"
	"smiler/internal/wal"
)

// replSeqHeader carries the per-sensor replication sequence number a
// snapshot covers: the receiver drops frames at or below it and
// replays the tail above it.
const replSeqHeader = "X-Smiler-Repl-Seq"

// replicator ships per-sensor WAL frames from the owner to its
// follower nodes, asynchronously, and applies inbound frames on
// followers.
//
// Every mutation the owner applies (observation, registration,
// removal) is encoded with wal.EncodeFrame — the exact on-disk WAL
// envelope plus a per-sensor sequence number — and queued to each
// follower's stream. A follower applies frames in order, drops
// duplicates (seq ≤ last applied) and answers with a resync request
// on a gap (a shed frame, a missed registration, a restart); the
// owner then pushes a full sensor snapshot (the checkpoint envelope)
// tagged with the sequence number it covers, and streaming resumes
// above it. The design is convergent rather than lossless: any
// divergence heals through the snapshot path.
type replicator struct {
	n *Node

	// mu guards seq: per-sensor replication sequence numbers. On an
	// owner the counter is incremented per emitted frame; on a follower
	// it tracks the last applied frame. A node is owner or follower per
	// sensor, never both, so one map serves both roles — and keeps the
	// sequence continuous across a promotion.
	mu  sync.Mutex
	seq map[string]uint64

	// peers holds one outbound stream per peer, fixed at construction.
	peers map[string]*peerStream

	// contact tracks when each peer last reached this node (frames,
	// heartbeats, snapshots). A promoted replica uses the failed
	// primary's entry to bound the staleness of the reads it serves.
	contactMu   sync.RWMutex
	lastContact map[string]time.Time

	wg sync.WaitGroup
}

// peerStream is one follower's outbound stream: a bounded frame queue
// drained by a single worker (one POST in flight per peer, so frames
// arrive in emission order).
type peerStream struct {
	to     Member
	frames chan *sharedFrame
	resync chan string // sensor ids needing a snapshot push
	stop   chan struct{}
}

// sharedFrame is one encoded replication frame fanned out to several
// follower queues. The encode buffer comes from the memsys byte pool;
// the last consumer (a peerLoop that shipped it, or emit when a full
// queue sheds it) returns the slab.
type sharedFrame struct {
	buf  []byte
	refs atomic.Int32
}

func (f *sharedFrame) release() {
	if f.refs.Add(-1) == 0 {
		b := f.buf
		f.buf = nil
		memsys.PutBytes(b)
	}
}

const (
	peerQueueCap   = 4096
	resyncQueue    = 256
	maxBatchFrames = 256
)

// newReplicator opens one stream per peer. Every peer's contact time
// is seeded with the construction time: a primary that is already down
// when this node boots must accrue staleness from now, not read as
// freshly contacted forever.
func newReplicator(n *Node) *replicator {
	r := &replicator{
		n:           n,
		seq:         make(map[string]uint64),
		peers:       make(map[string]*peerStream),
		lastContact: make(map[string]time.Time),
	}
	now := time.Now()
	for _, id := range n.view.peers {
		r.peers[id] = &peerStream{
			to:     n.view.members[id],
			frames: make(chan *sharedFrame, peerQueueCap),
			resync: make(chan string, resyncQueue),
			stop:   make(chan struct{}),
		}
		r.lastContact[id] = now
	}
	return r
}

func (r *replicator) start() {
	for _, p := range r.peers {
		r.wg.Add(1)
		go r.peerLoop(p)
	}
}

func (r *replicator) close() {
	for _, p := range r.peers {
		close(p.stop)
	}
	r.wg.Wait()
}

// --- sequence bookkeeping ---

func (r *replicator) nextSeq(sensor string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq[sensor]++
	return r.seq[sensor]
}

func (r *replicator) seqOf(sensor string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq[sensor]
}

func (r *replicator) setSeq(sensor string, seq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq[sensor] = seq
}

func (r *replicator) dropSeq(sensor string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.seq, sensor)
}

// queuedFrames reports the total outbound backlog (replication lag in
// frames) across peers.
func (r *replicator) queuedFrames() int {
	total := 0
	for _, p := range r.peers {
		total += len(p.frames)
	}
	return total
}

// --- contact tracking ---

func (r *replicator) touch(peer string) {
	if peer == "" {
		return
	}
	r.contactMu.Lock()
	r.lastContact[peer] = time.Now()
	r.contactMu.Unlock()
}

// sinceContact reports how long ago the peer last reached this node.
// Every member is seeded with the process start time, so a peer never
// heard from (e.g. the primary was already down when this replica
// restarted) accrues staleness from boot — MaxStaleness stays enforced
// in exactly the restart-during-outage case. Non-member ids (never
// routable) read as zero.
func (r *replicator) sinceContact(peer string) time.Duration {
	r.contactMu.RLock()
	at, ok := r.lastContact[peer]
	r.contactMu.RUnlock()
	if !ok {
		return 0
	}
	return time.Since(at)
}

// --- outbound: owner side ---

// emit encodes one applied mutation and queues it to every follower of
// the sensor. Called on the owner, after the mutation is applied
// locally, under the sensor's shard lock (Node.replicate), so emission
// order equals apply order per sensor for every frame kind.
func (r *replicator) emit(rec wal.Record) {
	targets := r.n.replicaTargets(rec.Sensor)
	if len(targets) == 0 {
		return
	}
	seq := r.nextSeq(rec.Sensor)
	// Encode into a pooled slab sized for the common case; EncodeFrame
	// appends, so a record that outgrows the estimate simply reallocates
	// and the oversized result bypasses the pool on release.
	est := 96 + len(rec.Sensor) + 8*len(rec.History)
	buf := memsys.GetBytes(est)[:0]
	frame, err := wal.EncodeFrame(buf, seq, rec)
	if err != nil {
		memsys.PutBytes(buf[:cap(buf)])
		return // unencodable record: nothing a follower could do either
	}
	sf := &sharedFrame{buf: frame}
	sf.refs.Store(int32(len(targets)))
	for _, id := range targets {
		p := r.peers[id]
		select {
		case p.frames <- sf:
			r.n.m.replFrames.Inc()
		default:
			// Full queue: shed. The follower detects the gap on the next
			// frame it does receive and resyncs via snapshot.
			r.n.m.replDropped.Inc()
			sf.release()
		}
	}
}

// peerLoop drains one follower's queue: frames are batched into a
// single POST (bounded), responses are checked for resync requests,
// and an idle stream sends heartbeats so the follower's staleness
// clock keeps ticking while there is nothing to replicate.
func (r *replicator) peerLoop(p *peerStream) {
	defer r.wg.Done()
	hb := time.NewTicker(r.n.cfg.ProbeInterval)
	defer hb.Stop()
	var batch bytes.Buffer
	for {
		select {
		case <-p.stop:
			// Drain and release whatever is still queued so pooled slabs
			// (and the in-use gauges) settle on shutdown.
			for {
				select {
				case f := <-p.frames:
					f.release()
				default:
					return
				}
			}
		case sensor := <-p.resync:
			r.pushSnapshot(p, sensor)
		case frame := <-p.frames:
			batch.Reset()
			batch.Write(frame.buf)
			frame.release()
			// Gather whatever else is queued, without blocking.
		gather:
			for i := 1; i < maxBatchFrames; i++ {
				select {
				case f := <-p.frames:
					batch.Write(f.buf)
					f.release()
				default:
					break gather
				}
			}
			r.post(p, batch.Bytes())
		case <-hb.C:
			r.post(p, nil) // heartbeat: empty batch, still updates contact
		}
	}
}

// replicateResponse is the follower's answer to a frame batch.
type replicateResponse struct {
	Applied int      `json:"applied"`
	Dupes   int      `json:"dupes,omitempty"`
	Resync  []string `json:"resync,omitempty"`
}

// post ships one batch (possibly empty — a heartbeat) to the peer and
// queues any requested snapshot resyncs.
func (r *replicator) post(p *peerStream, body []byte) {
	var rr replicateResponse
	if err := r.n.peerJSON(context.Background(), p.to, rpcReplicate, bytes.NewReader(body), &rr); err != nil {
		r.n.m.replErrs.Inc()
		return
	}
	for _, sensor := range rr.Resync {
		select {
		case p.resync <- sensor:
		default: // resync queue full; the follower will ask again
		}
	}
}

// pushSnapshot captures a bit-exact snapshot (checkpoint envelope)
// tagged with the replication sequence it covers (captureSensor keeps
// the pair atomic) and ships it to the peer.
func (r *replicator) pushSnapshot(p *peerStream, sensor string) {
	if !r.n.sys.HasSensor(sensor) {
		return // removed since the gap; the remove frame will catch up
	}
	r.n.m.resyncs.Inc()
	// A resync is a divergence healing itself — worth a flight-recorder
	// entry with a freshly minted trace id so the snapshot push and the
	// peer's restore correlate across nodes.
	tc := obs.TraceContext{ID: obs.NewTraceID(), Node: r.n.cfg.Self}
	r.n.sys.Events().Record(obs.Event{
		Type: "repl_resync", Severity: obs.SevWarn, Sensor: sensor, TraceID: tc.ID,
		Detail: "snapshot push to " + p.to.ID,
	})
	body, seq, err := r.n.captureSensor(sensor)
	if err == nil {
		err = r.n.shipSnapshot(obs.ContextWithTrace(context.Background(), tc), p.to, body, seq)
	}
	if err != nil && r.n.log != nil {
		r.n.log.Warn("cluster snapshot push failed", "sensor", sensor, "peer", p.to.ID, "err", err)
	}
}

// shipSnapshot is the one sender of POST /cluster/restore: a sensor's
// checkpoint bytes, tagged with the replication sequence they cover,
// for a follower that asked to resync.
func (n *Node) shipSnapshot(ctx context.Context, to Member, snap []byte, seq uint64) error {
	err := n.peerJSON(ctx, to, rpcRestore, bytes.NewReader(snap), nil,
		replSeqHeader, strconv.FormatUint(seq, 10))
	if err != nil {
		n.m.replErrs.Inc()
	}
	return err
}

// --- inbound: follower side ---

// handleReplicate is POST /cluster/replicate: a batch of WAL frames
// from a primary. Frames apply in order; duplicates drop; a gap or an
// unknown sensor asks for a resync instead of applying out of order.
func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	n.repl.touch(r.Header.Get(fromHeader))
	var resp replicateResponse
	needResync := map[string]bool{}
	fr := wal.NewFrameReader(r.Body)
	for {
		seq, rec, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Torn batch: everything decoded so far applied; the rest of
			// the stream is gone. The sender sees frames shed (and this
			// follower will gap out and resync), so just stop here.
			break
		}
		n.applyFrame(seq, rec, needResync, &resp)
	}
	for s := range needResync {
		resp.Resync = append(resp.Resync, s)
	}
	writeJSON(w, http.StatusOK, resp)
}

// applyFrame applies one replicated record under the sequence rules.
func (n *Node) applyFrame(seq uint64, rec wal.Record, needResync map[string]bool, resp *replicateResponse) {
	sensor := rec.Sensor
	switch rec.Type {
	case wal.RecAddSensor:
		// Self-contained replace: the frame carries the owner's full
		// history at emission, so it is safe to apply regardless of any
		// gap before it.
		if n.sys.HasSensor(sensor) {
			_ = n.sys.RemoveSensor(sensor)
		}
		if err := n.sys.AddSensor(sensor, rec.History); err != nil {
			needResync[sensor] = true
			return
		}
		n.repl.setSeq(sensor, seq)
		n.m.replApplied.Inc()
		resp.Applied++
	case wal.RecRemoveSensor:
		_ = n.sys.RemoveSensor(sensor) // unknown is fine: already gone
		n.repl.setSeq(sensor, seq)
		n.m.replApplied.Inc()
		resp.Applied++
	case wal.RecObserve:
		cur := n.repl.seqOf(sensor)
		switch {
		case seq <= cur:
			n.m.replDupes.Inc()
			resp.Dupes++
		case seq == cur+1 && n.sys.HasSensor(sensor):
			if err := n.sys.Observe(sensor, rec.Value); err != nil {
				needResync[sensor] = true
				return
			}
			n.repl.setSeq(sensor, seq)
			n.m.replApplied.Inc()
			resp.Applied++
		default:
			// Gap, or an observation for a sensor this follower has never
			// seen: ask for a snapshot.
			needResync[sensor] = true
		}
	default:
		needResync[sensor] = true
	}
}

// handleRestore is POST /cluster/restore: a sensor snapshot (the
// checkpoint envelope) covering every frame at or below the tagged
// sequence number. Restore replaces local state bit-exactly; frames
// above the tag then replay on top.
func (n *Node) handleRestore(w http.ResponseWriter, r *http.Request) {
	n.repl.touch(r.Header.Get(fromHeader))
	seq, err := strconv.ParseUint(r.Header.Get(replSeqHeader), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad %s header: %v", replSeqHeader, err))
		return
	}
	start := time.Now()
	ids, err := n.sys.RestoreSensorsFrom(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "restore failed: "+err.Error())
		return
	}
	tc, traced := obs.TraceFromContext(r.Context())
	for _, id := range ids {
		n.repl.setSeq(id, seq)
		// Record the receiving side of the snapshot push under the
		// sender's trace id, as a "replicate" hop span.
		if store := n.sys.Traces(); store != nil && traced && tc.Valid() {
			tr := obs.NewTrace(id)
			tr.SetContext(tc)
			tr.AddSpan("replicate", "restore from "+r.Header.Get(fromHeader), 0, time.Since(start))
			tr.Finish(nil)
			store.Add(tr)
		}
	}
	n.sys.Events().Record(obs.Event{
		Type: "repl_restore", TraceID: tc.ID,
		Detail: fmt.Sprintf("restored %d sensor(s) from %s at seq %d", len(ids), r.Header.Get(fromHeader), seq),
	})
	writeJSON(w, http.StatusOK, map[string]any{"restored": ids, "seq": seq})
}
