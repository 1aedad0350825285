package obs

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Event severities. Severity is a plain string so callers can extend
// the set, but everything the system emits uses one of these three.
const (
	SevInfo  = "info"
	SevWarn  = "warn"
	SevError = "error"
)

// Event is one structured flight-recorder entry: an operationally
// interesting state transition (failover, replication resync, WAL
// reset/replay, recovered panic, degraded prediction, peer up/down,
// checkpoint) stamped with a sequence number, wall time, the node that
// recorded it and — when the triggering request carried one — the
// distributed trace id, so a post-mortem can line events up against
// traces across nodes.
type Event struct {
	Seq      uint64    `json:"seq"`
	Time     time.Time `json:"time"`
	Type     string    `json:"type"`
	Severity string    `json:"severity"`
	Node     string    `json:"node,omitempty"`
	Sensor   string    `json:"sensor,omitempty"`
	TraceID  string    `json:"trace_id,omitempty"`
	Detail   string    `json:"detail,omitempty"`
}

// DefaultEventCapacity is the flight-recorder ring size.
const DefaultEventCapacity = 512

// EventRing is a bounded lock-free ring of Events — the black-box
// flight recorder. Writers claim a slot with one atomic add and
// publish an immutable *Event with one atomic store; readers load slot
// pointers without locks, so a snapshot is never blocked by (and never
// blocks) recording. Old events are overwritten once the ring wraps.
// A nil *EventRing accepts the full API as a no-op, matching the rest
// of the obs instruments.
type EventRing struct {
	slots []atomic.Pointer[Event]
	seq   atomic.Uint64
	node  atomic.Pointer[string]
	reg   *Registry
}

// NewEventRing builds a ring holding the last capacity events
// (capacity <= 0 takes DefaultEventCapacity). reg, when non-nil,
// receives a smiler_events_total{type,severity} count per recorded
// event.
func NewEventRing(capacity int, reg *Registry) *EventRing {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &EventRing{slots: make([]atomic.Pointer[Event], capacity), reg: reg}
}

// SetNode sets the node id stamped onto subsequently recorded events
// (the cluster layer learns its identity after the system is built).
func (r *EventRing) SetNode(node string) {
	if r == nil {
		return
	}
	r.node.Store(&node)
}

// Record stamps sequence number, time and node onto ev (severity
// defaults to info) and publishes it. Returns the assigned sequence
// number (0 on a nil ring).
func (r *EventRing) Record(ev Event) uint64 {
	if r == nil {
		return 0
	}
	if ev.Severity == "" {
		ev.Severity = SevInfo
	}
	if ev.Node == "" {
		if n := r.node.Load(); n != nil {
			ev.Node = *n
		}
	}
	ev.Time = time.Now()
	ev.Seq = r.seq.Add(1)
	e := ev
	r.slots[(ev.Seq-1)%uint64(len(r.slots))].Store(&e)
	r.reg.Counter("smiler_events_total",
		"Flight-recorder events by type and severity.",
		L("type", ev.Type), L("severity", ev.Severity)).Inc()
	return ev.Seq
}

// LastSeq returns the sequence number of the most recently recorded
// event — the ring's high-water mark (0 when empty or nil).
func (r *EventRing) LastSeq() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Since returns the retained events with Seq > after, oldest first.
// When max > 0 and more events qualify, the newest max are returned
// (the older ones are on their way out of the ring anyway). The
// snapshot is taken without locks: events recorded concurrently may or
// may not appear, exactly like a Prometheus scrape.
func (r *EventRing) Since(after uint64, max int) []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		if e := r.slots[i].Load(); e != nil && e.Seq > after {
			out = append(out, *e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// WriteTo dumps the retained events as text, oldest first — the
// post-mortem path wired to SIGTERM and panic handlers, so it must not
// allocate proportionally to anything but the ring size and must never
// block on a lock.
func (r *EventRing) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, e := range r.Since(0, 0) {
		line := fmt.Sprintf("%s [%s] %s", e.Time.Format(time.RFC3339Nano), e.Severity, e.Type)
		if e.Node != "" {
			line += " node=" + e.Node
		}
		if e.Sensor != "" {
			line += " sensor=" + e.Sensor
		}
		if e.TraceID != "" {
			line += " trace=" + e.TraceID
		}
		if e.Detail != "" {
			line += " " + e.Detail
		}
		m, err := fmt.Fprintln(w, line)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
