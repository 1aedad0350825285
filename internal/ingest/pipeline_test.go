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
// observation order, can block Observe on a gate, and serves a Predict
// whose mean is the number of observations applied so far.
type fakeSystem struct {
	mu   sync.Mutex
	seen map[string][]float64

	known map[string]bool // nil = every sensor exists

	observeGate  chan struct{} // when non-nil, Observe blocks until it is closed
	observeCalls atomic.Int64  // Observe calls entered, gated or not
	observeDelay time.Duration
	applied      atomic.Int64

	reused atomic.Bool // when set, every Forecast is marked Reused
}

func newFakeSystem() *fakeSystem {
	return &fakeSystem{seen: make(map[string][]float64)}
}

func (f *fakeSystem) Observe(id string, v float64) error {
	f.observeCalls.Add(1)
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
	if !f.HasSensor(id) {
		return nil, fmt.Errorf("unknown sensor %q", id)
	}
	out := make(map[int]smiler.Forecast, len(hs))
	for _, h := range hs {
		out[h] = smiler.Forecast{Mean: float64(f.applied.Load()), Variance: 1, Horizon: h, Reused: f.reused.Load()}
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
	p, err := New(newFakeSystem(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Shards < 1 || len(st.PerShard) != st.Shards {
		t.Fatalf("defaults not applied: %+v", st)
	}
	p.Close()
}

// TestParseBackpressure pins the sizes of the one full-queue policy
// left: every shard queue holds queueSize observations, and a worker
// drains at most maxBatch of them per wakeup.
func TestParseBackpressure(t *testing.T) {
	if queueSize != 256 || maxBatch != 32 {
		t.Fatalf("queueSize=%d maxBatch=%d, want 256/32", queueSize, maxBatch)
	}
	sys, p, release := gatedShard(t)
	if c := cap(p.shards[0].ch); c != queueSize {
		t.Fatalf("queue capacity %d, want %d", c, queueSize)
	}
	fillOneShard(t, sys, p)
	release()
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	// [0] on its own, the full queue in batches of maxBatch, then the
	// Drain token on its own.
	want := uint64(1 + queueSize/maxBatch + 1)
	if st := p.Stats().Totals; st.Processed != queueSize+1 || st.Batches != want {
		t.Fatalf("processed %d in %d batches, want %d in %d", st.Processed, st.Batches, queueSize+1, want)
	}
}

// TestOrderingPerSensor is the core invariant: concurrent producers
// for many sensors, each sensor's stream must be applied in its
// arrival order even though shards batch and interleave.
func TestOrderingPerSensor(t *testing.T) {
	sys := newFakeSystem()
	p := mustPipeline(t, sys, Config{Shards: 4})

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

// gatedShard builds a one-shard pipeline whose worker blocks inside
// the system's Observe until release is called. Cleanup releases it
// too, so a failed test cannot leave Close waiting on the worker.
func gatedShard(t *testing.T) (*fakeSystem, *Pipeline, func()) {
	t.Helper()
	sys := newFakeSystem()
	sys.observeGate = make(chan struct{})
	p := mustPipeline(t, sys, Config{Shards: 1})
	var once sync.Once
	release := func() { once.Do(func() { close(sys.observeGate) }) }
	t.Cleanup(release)
	return sys, p, release
}

// fillOneShard stalls the single worker inside Observe and fills the
// queue, returning once the pipeline is saturated: one observation in
// flight, queueSize more waiting.
func fillOneShard(t *testing.T, sys *fakeSystem, p *Pipeline) {
	t.Helper()
	if ok, err := p.Observe("s", 0); !ok || err != nil {
		t.Fatalf("first observe: ok=%v err=%v", ok, err)
	}
	// Once the worker is blocked in Observe it has closed its batch on
	// the first item alone, so the whole queue is free again.
	waitFor(t, "worker to block on the first item", func() bool {
		return sys.observeCalls.Load() == 1
	})
	for v := 1; v <= queueSize; v++ {
		if ok, err := p.Observe("s", float64(v)); !ok || err != nil {
			t.Fatalf("fill observe #%d: ok=%v err=%v", v, ok, err)
		}
	}
}

// observeAsync runs Observe on its own goroutine and delivers its
// outcome.
func observeAsync(p *Pipeline, id string, v float64) <-chan error {
	done := make(chan error, 1)
	go func() {
		ok, err := p.Observe(id, v)
		if err == nil && !ok {
			err = fmt.Errorf("observe %v not accepted", v)
		}
		done <- err
	}()
	return done
}

// TestBackpressureBlockIsLossless: an observe that meets a full queue
// waits for space, then lands in arrival order.
func TestBackpressureBlockIsLossless(t *testing.T) {
	sys, p, release := gatedShard(t)
	fillOneShard(t, sys, p)

	done := observeAsync(p, "s", 999)
	select {
	case err := <-done:
		t.Fatalf("observe on a full queue returned (%v) instead of waiting", err)
	case <-time.After(50 * time.Millisecond):
	}
	if st := p.Stats().Totals; st.QueueDepth != queueSize || st.Enqueued != queueSize+1 {
		t.Fatalf("while waiting: %+v", st)
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	seq := sys.sequence("s")
	if len(seq) != queueSize+2 || seq[queueSize] != queueSize || seq[queueSize+1] != 999 {
		t.Fatalf("processed %d observations ending %v", len(seq), seq[max(0, len(seq)-2):])
	}
	if st := p.Stats().Totals; st.Dropped != 0 || st.Processed != queueSize+2 {
		t.Fatalf("totals = %+v", st)
	}
}

// TestBackpressureDropNewest: nothing is shed. A bulk request that
// meets a full queue reports every item accepted, none dropped.
func TestBackpressureDropNewest(t *testing.T) {
	sys, p, release := gatedShard(t)
	fillOneShard(t, sys, p)

	done := make(chan BulkResult, 1)
	go func() {
		done <- p.ObserveBulk([]Observation{{"s", 997}, {"s", 998}, {"s", 999}})
	}()
	time.Sleep(20 * time.Millisecond) // let the bulk request meet the full queue
	release()
	if res := <-done; res.Accepted != 3 || res.Dropped != 0 || len(res.Failed) != 0 {
		t.Fatalf("bulk over a full queue = %+v", res)
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := len(sys.sequence("s")); got != queueSize+4 {
		t.Fatalf("processed %d, want %d", got, queueSize+4)
	}
	if st := p.Stats().Totals; st.Dropped != 0 {
		t.Fatalf("totals = %+v", st)
	}
}

// TestBackpressureError: a full queue is not an error. The only
// refusals left are an unknown sensor and a closed pipeline.
func TestBackpressureError(t *testing.T) {
	sys, p, release := gatedShard(t)
	sys.known = map[string]bool{"s": true}
	fillOneShard(t, sys, p)

	if ok, err := p.Observe("ghost", 1); ok || err == nil || !strings.Contains(err.Error(), "unknown sensor") {
		t.Fatalf("unknown sensor on a full queue: ok=%v err=%v", ok, err)
	}
	done := observeAsync(p, "s", 999)
	release()
	if err := <-done; err != nil {
		t.Fatalf("observe on a full queue: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if ok, err := p.Observe("s", 1000); ok || err != ErrClosed {
		t.Fatalf("post-close observe: ok=%v err=%v, want ErrClosed", ok, err)
	}
	if got := len(sys.sequence("s")); got != queueSize+2 {
		t.Fatalf("processed %d, want %d", got, queueSize+2)
	}
}

func TestCloseDrainsAcceptedObservations(t *testing.T) {
	sys := newFakeSystem()
	sys.observeDelay = 100 * time.Microsecond
	p, err := New(sys, Config{Shards: 3})
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
	if _, err := p.ForecastsCtx(context.Background(), "s0", []int{1}); err != nil {
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
	p := mustPipeline(t, sys, Config{Shards: 3})
	for i := 0; i < 20; i++ {
		p.Observe(fmt.Sprintf("s%d", i), float64(i))
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Shards != 3 {
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
