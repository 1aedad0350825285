// Resumable, batched, rate-limited rebalancing.
//
// The elected primary drives every rebalance. Each round it recomputes
// the plan from live cluster state — ask every member which sensors it
// holds, compare each sensor's effective owner against its target-ring
// owner — and migrates the misplaced ones through the bit-exact
// /cluster/migrate primitive in bounded batches with a pacing pause
// between them. There is no separate progress file: every completed
// migration is already durable cluster state (snapshot shipped,
// ownership override broadcast), so a primary that crashes mid-batch
// is replaced by the next elected primary, which recomputes the
// remaining plan and continues where the last committed move left off.
//
// Once the plan is empty and no move is blocked on a down node, the
// primary finalizes the map: joining members become active, draining
// members leave. The finalize is what makes the placement ring equal
// the target ring; until then the per-sensor overrides carry routing.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"sync/atomic"
	"time"
)

// moveOp is one planned sensor migration.
type moveOp struct {
	Sensor, From, To string
}

type rebalancer struct {
	n       *Node
	kick    chan struct{}
	running atomic.Bool
	moved   atomic.Int64 // sensors migrated by this node's rebalancer
	pending atomic.Int64 // misplaced sensors in the latest plan
	lastErr atomic.Value // string
}

func newRebalancer(n *Node) *rebalancer {
	return &rebalancer{n: n, kick: make(chan struct{}, 1)}
}

// kickNow nudges the rebalancer; coalesces while a run is in flight.
func (rb *rebalancer) kickNow() {
	select {
	case rb.kick <- struct{}{}:
	default:
	}
}

func (rb *rebalancer) loop() {
	defer rb.n.wg.Done()
	for {
		select {
		case <-rb.n.done:
			return
		case <-rb.kick:
		}
		rb.run()
	}
}

// run drives rounds until the cluster converges on the target ring
// (then finalizes), this node stops being primary, or the node closes.
func (rb *rebalancer) run() {
	if !rb.running.CompareAndSwap(false, true) {
		return
	}
	defer rb.running.Store(false)
	n := rb.n
	for {
		select {
		case <-n.done:
			return
		default:
		}
		v := n.curView()
		if v == nil || n.electedPrimary() != n.cfg.Self {
			// A deposed primary's plan counter is dead state — the new
			// primary recomputes its own plan.
			rb.pending.Store(0)
			return
		}
		if !viewNeedsRebalance(v) {
			rb.pending.Store(0)
			return
		}
		plan, blocked, err := rb.computePlan(v)
		if err != nil {
			rb.noteErr(err)
			if !rb.pause() {
				return
			}
			continue
		}
		rb.pending.Store(int64(len(plan) + blocked))
		if len(plan) == 0 {
			if blocked == 0 {
				if err := n.proposeFinalize(); err != nil {
					rb.noteErr(err)
					if !rb.pause() {
						return
					}
				}
				continue
			}
			// Moves remain but their source or target is down: wait for
			// it to come back (or be decommissioned) and re-plan.
			if !rb.pause() {
				return
			}
			continue
		}
		if n.log != nil {
			n.log.Info("rebalance round", "moves", len(plan), "blocked", blocked)
		}
		for i, op := range plan {
			select {
			case <-n.done:
				return
			default:
			}
			if n.electedPrimary() != n.cfg.Self {
				rb.pending.Store(0)
				return
			}
			if err := rb.migrateOne(v, op); err != nil {
				rb.noteErr(fmt.Errorf("move %s %s->%s: %w", op.Sensor, op.From, op.To, err))
			} else {
				rb.moved.Add(1)
				rb.pending.Add(-1)
			}
			if (i+1)%n.cfg.RebalanceBatch == 0 && !rb.pause() {
				return
			}
		}
		if !rb.pause() {
			return
		}
	}
}

// pause sleeps one pacing interval; false means the node is closing.
func (rb *rebalancer) pause() bool {
	select {
	case <-rb.n.done:
		return false
	case <-time.After(rb.n.cfg.RebalanceInterval):
		return true
	}
}

func (rb *rebalancer) noteErr(err error) {
	rb.lastErr.Store(err.Error())
	if rb.n.log != nil {
		rb.n.log.Warn("rebalance", "err", err)
	}
}

// computePlan lists every sensor whose effective owner differs from
// its target-ring owner. Discovery asks each member for its resident
// sensor ids (replicas dedupe via the set); an unreachable member only
// hides sensors that exist nowhere else, and the next round retries.
// blocked counts misplaced sensors whose move cannot run yet because
// the source or target is down.
func (rb *rebalancer) computePlan(v *memberView) (plan []moveOp, blocked int, err error) {
	n := rb.n
	sensors := make(map[string]struct{})
	ids := make([]string, 0, len(v.members))
	for id := range v.members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	reached := 0
	for _, id := range ids {
		if id == n.cfg.Self {
			for _, s := range n.sys.Sensors() {
				sensors[s] = struct{}{}
			}
			reached++
			continue
		}
		list, lerr := rb.fetchSensors(v.members[id])
		if lerr != nil {
			continue
		}
		reached++
		for _, s := range list {
			sensors[s] = struct{}{}
		}
	}
	if reached == 0 {
		return nil, 0, errors.New("no member reachable for sensor discovery")
	}
	all := make([]string, 0, len(sensors))
	for s := range sensors {
		all = append(all, s)
	}
	sort.Strings(all)
	for _, s := range all {
		tgt := v.target.Owner(s)
		if tgt == "" {
			continue
		}
		owner, promoted := n.route(s)
		if owner.ID == "" || owner.ID == tgt {
			continue
		}
		if promoted || !n.health.isUp(owner.ID) || !n.health.isUp(tgt) {
			blocked++
			continue
		}
		plan = append(plan, moveOp{Sensor: s, From: owner.ID, To: tgt})
	}
	return plan, blocked, nil
}

func (rb *rebalancer) fetchSensors(from Member) ([]string, error) {
	var out struct {
		Sensors []string `json:"sensors"`
	}
	err := rb.n.peerJSON(context.Background(), from, rpcSensors, nil, &out)
	return out.Sensors, err
}

// migrateOne drives one bit-exact move through the source's
// /cluster/migrate. A 409 means the source no longer owns the sensor;
// when the cluster already routes it to the target (another primary's
// earlier move), the move counts as done.
func (rb *rebalancer) migrateOne(v *memberView, op moveOp) error {
	n := rb.n
	src, ok := v.members[op.From]
	if !ok {
		return fmt.Errorf("source %q left the map", op.From)
	}
	err := n.peerJSON(context.Background(), src, rpcMigrate,
		jsonBody(MigrateRequest{Sensor: op.Sensor, Target: op.To}), nil)
	if peerStatus(err) != http.StatusConflict {
		return err
	}
	if owner, _ := n.route(op.Sensor); owner.ID == op.To {
		return nil
	}
	// The source's view may know a cutover this node missed (a
	// restarted primary that slept through the override broadcast):
	// ask the source where it routes the sensor, and if that is the
	// target, adopt the override and re-broadcast it.
	if route, rerr := rb.fetchRoute(src, op.Sensor); rerr == nil && route.Owner == op.To {
		n.setAssign(op.Sensor, op.To)
		n.broadcastAssign(op.Sensor, op.To)
		return nil
	}
	return err
}

// fetchRoute reads one sensor's placement as another member sees it.
func (rb *rebalancer) fetchRoute(from Member, sensor string) (SensorRoute, error) {
	rpc := rpcRoute
	rpc.path += "?sensor=" + url.QueryEscape(sensor)
	var out SensorRoute
	err := rb.n.peerJSON(context.Background(), from, rpc, nil, &out)
	return out, err
}

// RebalanceStatus is GET /cluster/rebalance: this node's rebalancer
// counters (only meaningful on the primary, but served everywhere).
type RebalanceStatus struct {
	Primary   string `json:"primary"`
	Epoch     uint64 `json:"epoch"`
	Active    bool   `json:"active"`
	Moved     int64  `json:"moved"`
	Pending   int64  `json:"pending"`
	LastError string `json:"last_error,omitempty"`
}

func (n *Node) handleRebalance(w http.ResponseWriter, _ *http.Request) {
	st := RebalanceStatus{
		Primary: n.electedPrimary(),
		Epoch:   n.epoch(),
		Active:  n.reb.running.Load(),
		Moved:   n.reb.moved.Load(),
		Pending: n.reb.pending.Load(),
	}
	if e, _ := n.reb.lastErr.Load().(string); e != "" {
		st.LastError = e
	}
	writeJSON(w, http.StatusOK, st)
}
