package ingest

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smiler"
	"smiler/internal/obs"
	"smiler/internal/wal"
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

	events *obs.EventRing // nil records nothing
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

func (f *fakeSystem) Events() *obs.EventRing { return f.events }

// AddSensor registers id; it needs a known set, and a history holding
// a NaN is rejected.
func (f *fakeSystem) AddSensor(id string, history []float64) error {
	for _, v := range history {
		if v != v {
			return errors.New("NaN in history")
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.known[id] = true
	return nil
}

func (f *fakeSystem) RemoveSensor(id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.known[id] {
		return fmt.Errorf("unknown sensor %q", id)
	}
	delete(f.known, id)
	return nil
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

// TestOrderingPerSensor is the core invariant: concurrent producers
// for many sensors, each sensor's stream must be applied in its
// arrival order even though shards interleave.
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
	if st.Totals.Processed != sensors*perSensor || st.Totals.Dropped != 0 || st.Totals.QueueDepth != 0 {
		t.Fatalf("totals = %+v", st.Totals)
	}
}

// gatedShard builds a one-shard pipeline whose shard stalls inside
// the system's Observe until release is called. Cleanup releases it
// too, so a failed test cannot leave a caller holding the lock.
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

// stallShard starts an observation of "s" that stalls inside the
// system's Observe, holding the one shard's lock, and returns its
// outcome channel once it is stalled.
func stallShard(t *testing.T, sys *fakeSystem, p *Pipeline) <-chan error {
	t.Helper()
	first := observeAsync(p, "s", 0)
	waitFor(t, "the first observation to stall in apply", func() bool {
		return sys.observeCalls.Load() == 1
	})
	return first
}

// quiet fails the test if done delivers within a short window: the
// observation behind it must still be waiting.
func quiet(t *testing.T, done <-chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("%s returned (%v) instead of waiting", what, err)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestBackpressureBlockIsLossless: an observe that meets a busy shard
// waits for its lock, returns only once its own value is applied, and
// lands in arrival order.
func TestBackpressureBlockIsLossless(t *testing.T) {
	sys, p, release := gatedShard(t)
	first := stallShard(t, sys, p)

	second := observeAsync(p, "s", 999)
	quiet(t, first, "an observe stalled in apply")
	quiet(t, second, "an observe behind a busy shard")
	if got := sys.observeCalls.Load(); got != 1 {
		t.Fatalf("%d applies entered while the shard was busy, want 1", got)
	}
	release()
	for _, done := range []<-chan error{first, second} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if seq := sys.sequence("s"); len(seq) != 2 || seq[0] != 0 || seq[1] != 999 {
		t.Fatalf("applied %v, want [0 999]", seq)
	}
	if st := p.Stats().Totals; st.Dropped != 0 || st.QueueDepth != 0 || st.Processed != 2 || st.Enqueued != 2 {
		t.Fatalf("totals = %+v", st)
	}
}

// TestBackpressureDropNewest: nothing is shed. A bulk request that
// meets a busy shard reports every item accepted, none dropped, and
// returns with all of them applied.
func TestBackpressureDropNewest(t *testing.T) {
	sys, p, release := gatedShard(t)
	first := stallShard(t, sys, p)

	done := make(chan BulkResult, 1)
	go func() {
		done <- p.ObserveBulk([]Observation{{"s", 997}, {"s", 998}, {"s", 999}})
	}()
	time.Sleep(20 * time.Millisecond) // let the bulk request meet the busy shard
	release()
	if res := <-done; res.Accepted != 3 || res.Dropped != 0 || len(res.Failed) != 0 {
		t.Fatalf("bulk over a busy shard = %+v", res)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if got := len(sys.sequence("s")); got != 4 {
		t.Fatalf("applied %d, want 4", got)
	}
	if st := p.Stats().Totals; st.Dropped != 0 {
		t.Fatalf("totals = %+v", st)
	}
}

// TestBackpressureError: a busy shard is not an error. An unknown
// sensor is refused at once, even while the shard is busy, and a
// closed pipeline refuses everything.
func TestBackpressureError(t *testing.T) {
	sys, p, release := gatedShard(t)
	sys.known = map[string]bool{"s": true}
	first := stallShard(t, sys, p)

	if ok, err := p.Observe("ghost", 1); ok || err == nil || !strings.Contains(err.Error(), "unknown sensor") {
		t.Fatalf("unknown sensor on a busy shard: ok=%v err=%v", ok, err)
	}
	done := observeAsync(p, "s", 999)
	release()
	for _, d := range []<-chan error{first, done} {
		if err := <-d; err != nil {
			t.Fatalf("observe on a busy shard: %v", err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if ok, err := p.Observe("s", 1000); ok || err != ErrClosed {
		t.Fatalf("post-close observe: ok=%v err=%v, want ErrClosed", ok, err)
	}
	if got := len(sys.sequence("s")); got != 2 {
		t.Fatalf("applied %d, want 2", got)
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

// TestObserveApplyErrorReturned covers a sensor disappearing between
// the pipeline's check and the system's apply: the caller gets the
// apply error, and it counts in Errors (and in Processed, which counts
// what reached the apply).
func TestObserveApplyErrorReturned(t *testing.T) {
	sys, p, release := gatedShard(t)
	sys.known = map[string]bool{"s": true}
	done := stallShard(t, sys, p)
	sys.RemoveSensor("s") // vanishes mid-apply
	release()
	if err := <-done; err == nil || !strings.Contains(err.Error(), "unknown sensor") {
		t.Fatalf("observe of a vanished sensor: %v, want its apply error", err)
	}
	if st := p.Stats().Totals; st.Errors != 1 || st.Processed != 1 || st.JournalErrors != 0 {
		t.Fatalf("totals = %+v, want 1 error in 1 processed", st)
	}
}

// TestJournalFailureFailsObservation: a failed journal append fails
// the observation. It is not applied, does not reach the post-apply
// hook, and counts in JournalErrors; a bulk request reports the item
// failed and applies the rest.
func TestJournalFailureFailsObservation(t *testing.T) {
	sys := newFakeSystem()
	var hooked atomic.Int64
	p := mustPipeline(t, sys, Config{
		Shards: 1,
		Journal: func(r wal.Record) error {
			if r.Value < 0 {
				return errors.New("disk full")
			}
			return nil
		},
		OnApplied: func(wal.Record) { hooked.Add(1) },
	})
	if ok, err := p.Observe("s", -1); ok || !errors.Is(err, ErrJournal) || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("observe with a failing journal: ok=%v err=%v, want ErrJournal", ok, err)
	}
	res := p.ObserveBulk([]Observation{{"s", 1}, {"s", -2}, {"s", 3}})
	if res.Accepted != 2 || len(res.Failed) != 1 || res.Failed[0].Index != 1 {
		t.Fatalf("bulk with one failing journal append = %+v", res)
	}
	if seq := sys.sequence("s"); len(seq) != 2 || seq[0] != 1 || seq[1] != 3 {
		t.Fatalf("applied %v, want [1 3]: a value whose journal append failed was applied", seq)
	}
	if hooked.Load() != 2 {
		t.Fatalf("post-apply hook ran %d times, want 2", hooked.Load())
	}
	if st := p.Stats().Totals; st.JournalErrors != 2 || st.Processed != 2 || st.Errors != 0 {
		t.Fatalf("totals = %+v, want 2 journal errors, 2 processed", st)
	}
}

// TestObservePanicIsAnError: a panic while journaling becomes the
// observation's error, counts in Panics and Errors, is recorded as a
// panic_recovered event, and leaves the shard serving.
func TestObservePanicIsAnError(t *testing.T) {
	sys := newFakeSystem()
	sys.events = obs.NewEventRing(16, nil)
	p := mustPipeline(t, sys, Config{
		Shards: 1,
		Journal: func(r wal.Record) error {
			if r.Value < 0 {
				panic("injected")
			}
			return nil
		},
	})
	if ok, err := p.Observe("s", -1); ok || err == nil || !strings.Contains(err.Error(), "recovered panic") {
		t.Fatalf("observe with a panicking journal: ok=%v err=%v", ok, err)
	}
	if ok, err := p.Observe("s", 1); !ok || err != nil {
		t.Fatalf("observe after a panic: ok=%v err=%v", ok, err)
	}
	if st := p.Stats().Totals; st.Panics != 1 || st.Errors != 1 || st.Processed != 1 {
		t.Fatalf("totals = %+v", st)
	}
	evs := sys.events.Since(0, 16)
	if len(evs) != 1 || evs[0].Type != "panic_recovered" || evs[0].Sensor != "s" {
		t.Fatalf("events = %+v, want one panic_recovered for s", evs)
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
