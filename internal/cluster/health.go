package cluster

import (
	"context"
	"sync"
	"time"

	"smiler/internal/obs"
)

// prober watches every peer's GET /readyz and declares a peer down
// after ProbeFailures consecutive failures (a single dropped probe
// must not trigger a failover). A down peer flips back to up on the
// first successful probe. Self is always up.
type prober struct {
	n *Node

	mu    sync.RWMutex
	state map[string]*peerHealth

	stop chan struct{}
	wg   sync.WaitGroup
}

// peerHealth is one peer's probe state.
type peerHealth struct {
	up       bool
	failures int       // consecutive failures
	lastErr  string    // last probe failure, for /cluster/health
	lastOK   time.Time // last successful probe
}

// PeerHealth is the wire shape of one peer's state on GET
// /cluster/health.
type PeerHealth struct {
	Peer     string    `json:"peer"`
	URL      string    `json:"url"`
	Up       bool      `json:"up"`
	Failures int       `json:"consecutive_failures"`
	LastOK   time.Time `json:"last_ok,omitempty"`
	LastErr  string    `json:"last_error,omitempty"`
}

// newProber starts every peer up: boot must not make the cluster look
// failed before the first probe round.
func newProber(n *Node) *prober {
	p := &prober{
		n:     n,
		state: make(map[string]*peerHealth, len(n.view.peers)),
		stop:  make(chan struct{}),
	}
	for _, id := range n.view.peers {
		p.state[id] = &peerHealth{up: true}
	}
	return p
}

func (p *prober) start() {
	p.wg.Add(1)
	go p.loop()
}

func (p *prober) close() {
	close(p.stop)
	p.wg.Wait()
}

func (p *prober) loop() {
	defer p.wg.Done()
	t := time.NewTicker(p.n.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.probeAll()
		}
	}
}

func (p *prober) probeAll() {
	var wg sync.WaitGroup
	for _, id := range p.n.view.peers {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.record(id, p.probe(id))
		}()
	}
	wg.Wait()
}

// probe hits the peer's readiness endpoint once. Any transport error
// or non-200 (a recovering or shutting-down node answers 503) counts
// as a failure: not-ready nodes must not own sensors.
func (p *prober) probe(id string) error {
	return p.n.peerJSON(context.Background(), p.n.view.members[id], rpcProbe, nil, nil)
}

func (p *prober) record(id string, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.state[id]
	if st == nil {
		return
	}
	if err == nil {
		st.failures = 0
		st.lastErr = ""
		st.lastOK = time.Now()
		if !st.up {
			p.n.sys.Events().Record(obs.Event{
				Type: "peer_up", Detail: "peer " + id + " recovered",
			})
			if p.n.log != nil {
				p.n.log.Info("cluster peer up", "peer", id)
			}
		}
		st.up = true
		return
	}
	st.failures++
	st.lastErr = err.Error()
	if st.up && st.failures >= p.n.cfg.ProbeFailures {
		st.up = false
		p.n.m.failovers.Inc()
		p.n.sys.Events().Record(obs.Event{
			Type: "failover", Severity: obs.SevError,
			Detail: "peer " + id + " down after " + err.Error(),
		})
		if p.n.log != nil {
			p.n.log.Warn("cluster peer down", "peer", id, "failures", st.failures, "err", err)
		}
	}
}

// isUp reports the peer's probe state; self and unknown ids are up
// (unknown ids cannot be routed to anyway).
func (p *prober) isUp(id string) bool {
	if id == p.n.cfg.Self {
		return true
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	st, ok := p.state[id]
	return !ok || st.up
}

// snapshot reports every peer's state for GET /cluster/health.
func (p *prober) snapshot() []PeerHealth {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]PeerHealth, 0, len(p.state))
	for _, id := range p.n.view.peers {
		st := p.state[id]
		if st == nil {
			continue
		}
		out = append(out, PeerHealth{
			Peer: id, URL: p.n.view.members[id].URL, Up: st.up,
			Failures: st.failures, LastOK: st.lastOK, LastErr: st.lastErr,
		})
	}
	return out
}
