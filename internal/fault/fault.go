// Package fault is a deterministic, seedable fault-injection registry
// for the robustness test harness. Production code registers named
// injection points at its failure seams — the WAL append/sync path,
// the checkpoint writer, the simulated-GPU kernel launch, the GP fit —
// by calling Check (or Corrupt on read paths). With no injector armed,
// a check is a single atomic load and a nil comparison, cheap enough
// to leave in every hot path.
//
// Tests arm an Injector with per-point rules: fail with an error,
// inject latency, panic, or corrupt bytes, either with a seeded
// probability or deterministically after the Nth check. The injector's
// randomness comes from one seeded source guarded by a mutex, so a
// given seed always produces the same fault schedule for a serial
// caller — the property the crash-recovery torture test relies on.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Kind selects what an armed rule does when it fires.
type Kind int

const (
	// KindError makes Check return the rule's error.
	KindError Kind = iota
	// KindLatency makes Check sleep for the rule's latency, then
	// succeed.
	KindLatency
	// KindPanic makes Check panic (exercising recovery paths).
	KindPanic
	// KindCorrupt makes Corrupt flip one byte of the data it is given;
	// Check treats it as a no-op.
	KindCorrupt
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindLatency:
		return "latency"
	case KindPanic:
		return "panic"
	case KindCorrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ErrInjected is the default error returned by a firing KindError rule
// (rules may carry their own).
var ErrInjected = errors.New("fault: injected failure")

// Rule arms one injection point.
type Rule struct {
	// Kind selects the fault.
	Kind Kind
	// Prob is the per-check firing probability in [0, 1]. Ignored when
	// After is set.
	Prob float64
	// After, when positive, fires deterministically on every check
	// past the After-th (1-based: After=1 fires from the first check
	// on). Takes precedence over Prob.
	After uint64
	// Once limits an After rule to firing exactly once (the crash-at-
	// a-point schedule of the torture test).
	Once bool
	// Err overrides ErrInjected for KindError rules.
	Err error
	// Latency is the injected delay for KindLatency rules.
	Latency time.Duration
}

// Injector holds the armed rules of one test run.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	rules  map[string]*armedRule
	checks map[string]uint64
	fired  map[string]uint64
}

type armedRule struct {
	Rule
	spent bool // a Once rule that already fired
}

// NewInjector builds an injector whose probabilistic rules draw from a
// source seeded with seed.
func NewInjector(seed int64) *Injector {
	return &Injector{
		rng:    rand.New(rand.NewSource(seed)),
		rules:  make(map[string]*armedRule),
		checks: make(map[string]uint64),
		fired:  make(map[string]uint64),
	}
}

// Set arms (or replaces) the rule at a point. The point name is the
// string production code passes to Check/Corrupt, e.g. "gp.fit".
func (in *Injector) Set(point string, r Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules[point] = &armedRule{Rule: r}
}

// Clear disarms one point.
func (in *Injector) Clear(point string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.rules, point)
}

// Checks reports how many times the point was checked.
func (in *Injector) Checks(point string) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.checks[point]
}

// Fired reports how many times the point's rule fired.
func (in *Injector) Fired(point string) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[point]
}

// decide counts one check and reports whether the rule fires, and with
// what. It holds the mutex only for the decision, not for the fault's
// effect (sleeps and panics happen outside).
func (in *Injector) decide(point string) (Rule, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.checks[point]++
	r, ok := in.rules[point]
	if !ok || r.spent {
		return Rule{}, false
	}
	fire := false
	switch {
	case r.After > 0:
		fire = in.checks[point] >= r.After
	default:
		fire = r.Prob > 0 && in.rng.Float64() < r.Prob
	}
	if !fire {
		return Rule{}, false
	}
	if r.Once {
		r.spent = true
	}
	in.fired[point]++
	return r.Rule, true
}

// check applies the point's rule: returns the rule error, sleeps,
// panics, or does nothing.
func (in *Injector) check(point string) error {
	r, fire := in.decide(point)
	if !fire {
		return nil
	}
	switch r.Kind {
	case KindError:
		if r.Err != nil {
			return fmt.Errorf("fault: %s: %w", point, r.Err)
		}
		return fmt.Errorf("%w at %s", ErrInjected, point)
	case KindLatency:
		time.Sleep(r.Latency)
	case KindPanic:
		panic(fmt.Sprintf("fault: injected panic at %s", point))
	}
	return nil
}

// corrupt applies a KindCorrupt rule: when it fires, one byte of data
// is flipped in place (position drawn from the seeded source).
func (in *Injector) corrupt(point string, data []byte) {
	r, fire := in.decide(point)
	if !fire || r.Kind != KindCorrupt || len(data) == 0 {
		return
	}
	in.mu.Lock()
	pos := in.rng.Intn(len(data))
	in.mu.Unlock()
	data[pos] ^= 0xa5
}

// active is the armed injector; nil means every check is a no-op.
var active atomic.Pointer[Injector]

// Arm installs the injector globally. Tests must Disarm (usually via
// t.Cleanup) before the next test runs.
func Arm(in *Injector) { active.Store(in) }

// Disarm removes the active injector.
func Disarm() { active.Store(nil) }

// Check consults the active injector at a named point: it returns an
// injected error, sleeps, panics, or (the production case) does
// nothing. With no injector armed it costs one atomic load.
func Check(point string) error {
	in := active.Load()
	if in == nil {
		return nil
	}
	return in.check(point)
}

// Corrupt gives the active injector a chance to flip a byte of data in
// place (read-path corruption). No-op with no injector armed.
func Corrupt(point string, data []byte) {
	in := active.Load()
	if in == nil {
		return
	}
	in.corrupt(point, data)
}

// Well-known injection points registered by production code. Tests may
// use any string, but these are the seams the robustness harness
// drives.
const (
	// PointWALAppend fires in wal.Log.Append before the frame is
	// written.
	PointWALAppend = "wal.append"
	// PointWALSync fires in wal.Log.Sync before the fsync.
	PointWALSync = "wal.sync"
	// PointWALRead fires (KindCorrupt) on every frame read during
	// replay.
	PointWALRead = "wal.read"
	// PointCheckpointWrite fires in the atomic checkpoint writer
	// before the temp file is renamed into place.
	PointCheckpointWrite = "checkpoint.write"
	// PointTierTailAppend fires after a cold sensor's observation is
	// written to its tail file, before the file is closed.
	PointTierTailAppend = "tier.tail_append"
	// PointGPUSimLaunch fires at the top of gpusim.Device.Launch.
	PointGPUSimLaunch = "gpusim.launch"
	// PointGPFit fires at the top of every GP predictor fit.
	PointGPFit = "gp.fit"

	// Cluster-path points. Each is checked twice per send: once under
	// its bare name and once suffixed ":<peer-id>", so a rule keyed
	// "cluster.forward:n2" partitions this node from n2 only while
	// "cluster.forward" drops every forward.

	// PointClusterForward fires before a request is proxied to the
	// sensor's owning node.
	PointClusterForward = "cluster.forward"
	// PointClusterReplicateSend fires before a replication frame batch,
	// heartbeat or resync snapshot is POSTed to a peer.
	PointClusterReplicateSend = "cluster.replicate.send"
	// PointClusterProbe fires before a peer readiness probe.
	PointClusterProbe = "cluster.probe"
	// PointClusterPeer fires before every node-to-node request of any
	// kind, after the request kind's own point above (if it has one):
	// "cluster.peer:n2" is a total one-way partition from n2.
	PointClusterPeer = "cluster.peer"
)
