package ingest

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smiler"
)

// fakeSystem is an instrumented System: it records per-sensor
// observation order, can block Observe/Predict on gates, and serves a
// Predict whose mean is the number of observations applied so far —
// which makes cache staleness visible.
type fakeSystem struct {
	mu   sync.Mutex
	seen map[string][]float64

	known map[string]bool // nil = every sensor exists

	observeGate  chan struct{} // when non-nil, Observe blocks until it is closed
	observeDelay time.Duration
	predictGate  chan struct{} // when non-nil, Predict blocks until it is closed
	predictCalls atomic.Int64
	applied      atomic.Int64

	quality atomic.Value // string; when set, stamped on every Forecast
}

func newFakeSystem() *fakeSystem {
	return &fakeSystem{seen: make(map[string][]float64)}
}

func (f *fakeSystem) Observe(id string, v float64) error {
	if f.observeGate != nil {
		<-f.observeGate
	}
	if f.observeDelay > 0 {
		time.Sleep(f.observeDelay)
	}
	if !f.HasSensor(id) {
		return fmt.Errorf("unknown sensor %q", id)
	}
	f.mu.Lock()
	f.seen[id] = append(f.seen[id], v)
	f.mu.Unlock()
	f.applied.Add(1)
	return nil
}

func (f *fakeSystem) PredictHorizonsCtx(_ context.Context, id string, hs []int) (map[int]smiler.Forecast, error) {
	f.predictCalls.Add(1)
	if f.predictGate != nil {
		<-f.predictGate
	}
	if !f.HasSensor(id) {
		return nil, fmt.Errorf("unknown sensor %q", id)
	}
	q, _ := f.quality.Load().(string)
	out := make(map[int]smiler.Forecast, len(hs))
	for _, h := range hs {
		out[h] = smiler.Forecast{Mean: float64(f.applied.Load()), Variance: 1, Horizon: h, Quality: q}
	}
	return out, nil
}

func (f *fakeSystem) HasSensor(id string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.known == nil {
		return true
	}
	return f.known[id]
}

func (f *fakeSystem) forget(id string) {
	f.mu.Lock()
	delete(f.known, id)
	f.mu.Unlock()
}

func (f *fakeSystem) sequence(id string) []float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]float64(nil), f.seen[id]...)
}

func mustPipeline(t *testing.T, sys System, cfg Config) *Pipeline {
	t.Helper()
	p, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil system should fail")
	}
	if _, err := New(newFakeSystem(), Config{Backpressure: Backpressure(42)}); err == nil {
		t.Fatal("invalid backpressure should fail")
	}
	p, err := New(newFakeSystem(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Shards < 1 || st.QueueSize != 256 || st.MaxBatch != 32 || st.Backpressure != "block" {
		t.Fatalf("defaults not applied: %+v", st)
	}
	p.Close()
}

func TestParseBackpressure(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Backpressure
	}{{"block", Block}, {"drop-newest", DropNewest}, {"error", Error}} {
		got, err := ParseBackpressure(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseBackpressure(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseBackpressure("nope"); err == nil {
		t.Fatal("unknown policy should fail")
	}
}

// TestOrderingPerSensor is the core invariant: concurrent producers
// for many sensors, each sensor's stream must be applied in its
// arrival order even though shards batch and interleave.
func TestOrderingPerSensor(t *testing.T) {
	sys := newFakeSystem()
	p := mustPipeline(t, sys, Config{Shards: 4, QueueSize: 8, MaxBatch: 4})

	const sensors, perSensor = 9, 200
	var wg sync.WaitGroup
	for s := 0; s < sensors; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			id := fmt.Sprintf("sensor-%d", s)
			for v := 0; v < perSensor; v++ {
				if ok, err := p.Observe(id, float64(v)); !ok || err != nil {
					t.Errorf("observe %s #%d: ok=%v err=%v", id, v, ok, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < sensors; s++ {
		id := fmt.Sprintf("sensor-%d", s)
		seq := sys.sequence(id)
		if len(seq) != perSensor {
			t.Fatalf("%s: got %d observations, want %d", id, len(seq), perSensor)
		}
		for v, got := range seq {
			if got != float64(v) {
				t.Fatalf("%s: position %d holds %v (out of order)", id, v, got)
			}
		}
	}
	st := p.Stats()
	if st.Totals.Processed != sensors*perSensor || st.Totals.Dropped != 0 {
		t.Fatalf("totals = %+v", st.Totals)
	}
	if st.Totals.Batches == 0 || st.Totals.AvgBatch <= 0 {
		t.Fatalf("batching not accounted: %+v", st.Totals)
	}
}

func TestBackpressureBlockIsLossless(t *testing.T) {
	sys := newFakeSystem()
	sys.observeDelay = 200 * time.Microsecond
	p := mustPipeline(t, sys, Config{Shards: 1, QueueSize: 2, MaxBatch: 2, Backpressure: Block})
	const n = 100
	for v := 0; v < n; v++ {
		if ok, err := p.Observe("s", float64(v)); !ok || err != nil {
			t.Fatalf("observe #%d: ok=%v err=%v", v, ok, err)
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := len(sys.sequence("s")); got != n {
		t.Fatalf("processed %d, want %d", got, n)
	}
	if st := p.Stats(); st.Totals.Dropped != 0 || st.Totals.Processed != n {
		t.Fatalf("totals = %+v", st.Totals)
	}
}

// fillOneShard stalls the single worker inside Observe and fills the
// queue, returning once the pipeline is saturated: one observation in
// flight, QueueSize more waiting.
func fillOneShard(t *testing.T, sys *fakeSystem, p *Pipeline, queueSize int) {
	t.Helper()
	if ok, err := p.Observe("s", 0); !ok || err != nil {
		t.Fatalf("first observe: ok=%v err=%v", ok, err)
	}
	// The worker takes the first item off the queue and blocks in
	// Observe on the gate; wait until the queue is empty again.
	waitFor(t, "worker to pick up first item", func() bool {
		return p.Stats().PerShard[0].QueueDepth == 0
	})
	for v := 1; v <= queueSize; v++ {
		if ok, err := p.Observe("s", float64(v)); !ok || err != nil {
			t.Fatalf("fill observe #%d: ok=%v err=%v", v, ok, err)
		}
	}
}

func TestBackpressureDropNewest(t *testing.T) {
	sys := newFakeSystem()
	sys.observeGate = make(chan struct{})
	p := mustPipeline(t, sys, Config{Shards: 1, QueueSize: 2, MaxBatch: 1, Backpressure: DropNewest})
	fillOneShard(t, sys, p, 2)

	// Queue full: the next observation is shed, not blocked.
	ok, err := p.Observe("s", 99)
	if ok || err != nil {
		t.Fatalf("overflow observe: ok=%v err=%v, want shed", ok, err)
	}
	close(sys.observeGate)
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	seq := sys.sequence("s")
	if len(seq) != 3 { // 0 in flight + 2 queued; 99 dropped
		t.Fatalf("processed %v, want [0 1 2]", seq)
	}
	for i, v := range seq {
		if v != float64(i) {
			t.Fatalf("processed %v, want [0 1 2]", seq)
		}
	}
	st := p.Stats()
	if st.Totals.Dropped != 1 || st.Totals.Processed != 3 {
		t.Fatalf("totals = %+v", st.Totals)
	}
}

func TestBackpressureError(t *testing.T) {
	sys := newFakeSystem()
	sys.observeGate = make(chan struct{})
	p := mustPipeline(t, sys, Config{Shards: 1, QueueSize: 1, MaxBatch: 1, Backpressure: Error})
	fillOneShard(t, sys, p, 1)

	if ok, err := p.Observe("s", 99); ok || err != ErrQueueFull {
		t.Fatalf("overflow observe: ok=%v err=%v, want ErrQueueFull", ok, err)
	}
	close(sys.observeGate)
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := len(sys.sequence("s")); got != 2 {
		t.Fatalf("processed %d, want 2", got)
	}
}

func TestCloseDrainsAcceptedObservations(t *testing.T) {
	sys := newFakeSystem()
	sys.observeDelay = 100 * time.Microsecond
	p, err := New(sys, Config{Shards: 3, QueueSize: 64, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	for v := 0; v < n; v++ {
		id := fmt.Sprintf("s%d", v%5)
		if ok, err := p.Observe(id, float64(v)); !ok || err != nil {
			t.Fatalf("observe #%d: ok=%v err=%v", v, ok, err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sys.applied.Load(); got != n {
		t.Fatalf("Close returned with %d/%d observations applied", got, n)
	}
	// After Close: writes rejected, reads still served, Close idempotent.
	if ok, err := p.Observe("s0", 1); ok || err != ErrClosed {
		t.Fatalf("post-close observe: ok=%v err=%v, want ErrClosed", ok, err)
	}
	if err := p.Drain(); err != ErrClosed {
		t.Fatalf("post-close drain: %v, want ErrClosed", err)
	}
	if _, err := p.Forecast("s0", 1); err != nil {
		t.Fatalf("post-close forecast should still work: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestUnknownSensorRejectedAtEnqueue(t *testing.T) {
	sys := newFakeSystem()
	sys.known = map[string]bool{"known": true}
	p := mustPipeline(t, sys, Config{Shards: 1})
	if ok, err := p.Observe("ghost", 1); ok || err == nil || !strings.Contains(err.Error(), "unknown sensor") {
		t.Fatalf("ghost observe: ok=%v err=%v", ok, err)
	}
	if ok, err := p.Observe("known", 1); !ok || err != nil {
		t.Fatalf("known observe: ok=%v err=%v", ok, err)
	}
}

func TestObserveBulkAccounting(t *testing.T) {
	sys := newFakeSystem()
	sys.known = map[string]bool{"a": true, "b": true}
	p := mustPipeline(t, sys, Config{Shards: 2})
	res := p.ObserveBulk([]Observation{
		{Sensor: "a", Value: 1},
		{Sensor: "ghost", Value: 2},
		{Sensor: "b", Value: 3},
		{Sensor: "a", Value: 4},
	})
	if res.Accepted != 3 || res.Dropped != 0 || len(res.Failed) != 1 {
		t.Fatalf("bulk result = %+v", res)
	}
	if res.Failed[0].Index != 1 || res.Failed[0].ID != "ghost" {
		t.Fatalf("failure = %+v", res.Failed[0])
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if a, b := sys.sequence("a"), sys.sequence("b"); len(a) != 2 || len(b) != 1 {
		t.Fatalf("applied a=%v b=%v", a, b)
	}
}

// TestAsyncObserveErrorAccounted covers a sensor disappearing between
// enqueue and apply: the apply error lands in stats and OnError, not
// on any caller.
func TestAsyncObserveErrorAccounted(t *testing.T) {
	sys := newFakeSystem()
	sys.known = map[string]bool{"s": true}
	sys.observeGate = make(chan struct{})
	var reported atomic.Int64
	p := mustPipeline(t, sys, Config{Shards: 1, OnError: func(o Observation, err error) {
		reported.Add(1)
	}})
	if ok, err := p.Observe("s", 1); !ok || err != nil {
		t.Fatalf("observe: ok=%v err=%v", ok, err)
	}
	sys.forget("s") // vanishes while queued
	close(sys.observeGate)
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Totals.Errors != 1 || reported.Load() != 1 {
		t.Fatalf("errors=%d reported=%d, want 1/1", st.Totals.Errors, reported.Load())
	}
}

func TestStatsShape(t *testing.T) {
	sys := newFakeSystem()
	p := mustPipeline(t, sys, Config{Shards: 3, QueueSize: 7, MaxBatch: 5, Backpressure: DropNewest})
	for i := 0; i < 20; i++ {
		p.Observe(fmt.Sprintf("s%d", i), float64(i))
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Shards != 3 || st.QueueSize != 7 || st.MaxBatch != 5 || st.Backpressure != "drop-newest" {
		t.Fatalf("config echo wrong: %+v", st)
	}
	if len(st.PerShard) != 3 || st.Totals.Shard != -1 {
		t.Fatalf("shape wrong: %+v", st)
	}
	var sum uint64
	for i, s := range st.PerShard {
		if s.Shard != i {
			t.Fatalf("shard %d labeled %d", i, s.Shard)
		}
		sum += s.Processed
	}
	if sum != 20 || st.Totals.Processed != 20 || st.Totals.Enqueued != 20 {
		t.Fatalf("totals = %+v (shard sum %d)", st.Totals, sum)
	}
	if st.Totals.AvgLatencyMicros <= 0 {
		t.Fatalf("latency not accounted: %+v", st.Totals)
	}
}
