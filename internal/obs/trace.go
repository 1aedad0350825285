package obs

import (
	"sync"
	"time"
)

// Span is one timed phase of a prediction: its offset from the start
// of the query and its duration, both in seconds, plus an optional
// detail string (the GP-fit spans carry their ensemble cell, e.g.
// "k=8 d=32").
type Span struct {
	Name     string  `json:"name"`
	Detail   string  `json:"detail,omitempty"`
	OffsetS  float64 `json:"offset_s"`
	Duration float64 `json:"duration_s"`
}

// Trace records one prediction end to end: the per-phase spans (index
// search, lower-bound compute, verify, one GP fit per awake ensemble
// cell, mixing) and the kNN effectiveness stats of the search
// (candidates produced, pruned by LBen, survivors verified). A trace
// is built single-threaded while the sensor lock is held, finished,
// and only then published to a TraceStore — after Finish it is
// immutable and safe to serve concurrently.
type Trace struct {
	Sensor   string             `json:"sensor"`
	Horizons []int              `json:"horizons"`
	Start    time.Time          `json:"start"`
	TotalS   float64            `json:"total_s"`
	Spans    []Span             `json:"spans"`
	Stats    map[string]float64 `json:"stats,omitempty"`
	Error    string             `json:"error,omitempty"`

	// TraceID, Node and Hop tie node-local traces into one distributed
	// trace: every hop of a forwarded request records a trace carrying
	// the same 128-bit id, its own node name and its hop depth (0 = the
	// entry node). Empty/zero for purely local work predating a trace
	// context.
	TraceID string `json:"trace_id,omitempty"`
	Node    string `json:"node,omitempty"`
	Hop     int    `json:"hop,omitempty"`

	start time.Time
}

// SetContext stamps a distributed trace context onto the trace.
// Nil-safe; a zero context is ignored.
func (t *Trace) SetContext(tc TraceContext) {
	if t == nil || !tc.Valid() {
		return
	}
	t.TraceID, t.Hop = tc.ID, tc.Hop
	if tc.Node != "" {
		t.Node = tc.Node
	}
}

// NewTrace starts a trace for one prediction over the given horizons.
func NewTrace(sensor string, horizons ...int) *Trace {
	now := time.Now()
	return &Trace{
		Sensor:   sensor,
		Horizons: append([]int(nil), horizons...),
		Spans:    make([]Span, 0, 8),
		Start:    now,
		start:    now,
	}
}

// ID returns the distributed trace id ("" on nil or untraced).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.TraceID
}

// StartSpan opens a span and returns its closer. Nil-safe: on a nil
// trace the closer is a no-op.
func (t *Trace) StartSpan(name, detail string) func() {
	if t == nil {
		return func() {}
	}
	begin := time.Now()
	return func() {
		t.Spans = append(t.Spans, Span{
			Name:     name,
			Detail:   detail,
			OffsetS:  begin.Sub(t.start).Seconds(),
			Duration: time.Since(begin).Seconds(),
		})
	}
}

// AddSpan records an already-measured phase (used when the duration
// comes from instrumentation inside a lower layer, like the index's
// wall-clock split of lower-bound vs verify time).
func (t *Trace) AddSpan(name, detail string, offset, duration time.Duration) {
	if t == nil {
		return
	}
	t.Spans = append(t.Spans, Span{
		Name:     name,
		Detail:   detail,
		OffsetS:  offset.Seconds(),
		Duration: duration.Seconds(),
	})
}

// SetStat records one named statistic (kNN candidates, pruned, ...).
func (t *Trace) SetStat(name string, v float64) {
	if t == nil {
		return
	}
	if t.Stats == nil {
		t.Stats = make(map[string]float64)
	}
	t.Stats[name] = v
}

// Finish stamps the total duration (and the error, if any). Must be
// called before the trace is published.
func (t *Trace) Finish(err error) {
	if t == nil {
		return
	}
	t.TotalS = time.Since(t.start).Seconds()
	if err != nil {
		t.Error = err.Error()
	}
}

// TraceStore keeps the last N finished traces per sensor in a ring.
type TraceStore struct {
	mu       sync.Mutex
	capacity int
	bySensor map[string][]*Trace
}

// DefaultTraceCapacity is the per-sensor ring size.
const DefaultTraceCapacity = 16

// NewTraceStore builds a store keeping the last n traces per sensor
// (n <= 0 takes DefaultTraceCapacity).
func NewTraceStore(n int) *TraceStore {
	if n <= 0 {
		n = DefaultTraceCapacity
	}
	return &TraceStore{capacity: n, bySensor: make(map[string][]*Trace)}
}

// Add publishes a finished trace. Nil-safe on both receiver and trace.
func (s *TraceStore) Add(t *Trace) {
	if s == nil || t == nil {
		return
	}
	s.mu.Lock()
	ring := s.bySensor[t.Sensor]
	if len(ring) < s.capacity {
		ring = append(ring, t)
	} else {
		// Shift down rather than re-slice: a dropped trace left in the
		// backing array stays reachable until append happens to reallocate
		// it, which keeps up to twice the capacity alive.
		copy(ring, ring[1:])
		ring[len(ring)-1] = t
	}
	s.bySensor[t.Sensor] = ring
	s.mu.Unlock()
}

// Last returns up to n most recent traces for the sensor, newest
// first (all of them when n <= 0).
func (s *TraceStore) Last(sensor string, n int) []*Trace {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	ring := s.bySensor[sensor]
	if n <= 0 || n > len(ring) {
		n = len(ring)
	}
	out := make([]*Trace, n)
	for i := 0; i < n; i++ {
		out[i] = ring[len(ring)-1-i]
	}
	s.mu.Unlock()
	return out
}

// Remove drops every stored trace of the sensor (sensor deletion).
func (s *TraceStore) Remove(sensor string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	delete(s.bySensor, sensor)
	s.mu.Unlock()
}
