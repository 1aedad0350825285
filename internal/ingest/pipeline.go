// Package ingest is a sharded streaming ingestion pipeline that sits
// between the transport layer (internal/server) and the prediction
// system (smiler.System).
//
// The paper frames SMiLer as a continuous-query system over many
// concurrent sensor streams (§3; §6.4.1 scales it out across GPUs).
// Serving that shape over HTTP needs a front-end that decouples
// request handling from the per-sensor locking of the core system:
//
//   - Write side: each observation is hashed (FNV-1a) onto one of N
//     shard workers. A shard is a bounded queue drained by a single
//     goroutine in micro-batches, so observations for one sensor are
//     applied in arrival order while distinct shards proceed in
//     parallel. When a queue fills, the producer waits for space;
//     nothing is shed.
//   - Read side: a forecast goes straight to the system, under a panic
//     guard. Reuse lives in the sensor: between two observations every
//     read of a horizon gets the first exact answer computed for it
//     (smiler.Forecast.Reused), so a herd of identical requests costs
//     one kNN search + one fit per horizon, and an observation, a
//     removal or a restore, which replace that state, leave nothing
//     stale to invalidate. The pipeline counts the requests reuse
//     answered whole (hits) and the others (misses).
//
// Close drains: every observation accepted before Close returns is
// applied to the system, which is what lets the server drain the
// pipeline before writing its shutdown checkpoint.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"smiler"
)

// System is the slice of *smiler.System the pipeline drives; narrowed
// to an interface so tests can inject instrumented fakes.
type System interface {
	Observe(id string, v float64) error
	PredictHorizonsCtx(ctx context.Context, id string, hs []int) (map[int]smiler.Forecast, error)
	HasSensor(id string) bool
}

// Observation is one sensor reading entering the pipeline.
type Observation struct {
	Sensor string  `json:"id"`
	Value  float64 `json:"value"`
}

// Config configures a Pipeline; zero values take defaults.
type Config struct {
	// Shards is the number of shard workers (default GOMAXPROCS).
	Shards int
	// OnError, when set, is called from shard workers for every
	// observation whose asynchronous apply failed (e.g. to log it).
	OnError func(Observation, error)
	// Journal, when set, is called from the shard worker immediately
	// before each observation is applied — the write-ahead-log hook.
	// Because the worker is the shard's single writer, journal order
	// exactly equals apply order. A journal failure counts in the
	// shard's JournalErrors stat and is reported through OnError, but
	// the observation is still applied: availability over durability
	// for the window until the next successful sync.
	Journal func(shard int, id string, v float64) error
	// OnApplied, when set, is called from the shard worker after each
	// observation has been successfully applied to the system — the
	// replication hook.
	// Per-sensor call order equals apply order (single worker per
	// shard); failed applies never reach it. It can also be installed
	// after construction with SetOnApplied (the cluster layer is built
	// after the server that owns this pipeline).
	OnApplied func(Observation)
}

const (
	// queueSize is each shard's queue capacity: room for eight full
	// micro-batches, so a worker finds a batch waiting under load while
	// a shard holds at most this many unapplied observations. A full
	// queue makes Observe wait for space.
	queueSize = 256
	// maxBatch caps the micro-batch a worker drains per wakeup.
	maxBatch = 32
)

// ErrClosed is returned by Observe/Drain after Close.
var ErrClosed = errors.New("ingest: pipeline closed")

// Pipeline is the sharded ingestion front-end. All methods are safe
// for concurrent use.
type Pipeline struct {
	cfg    Config
	sys    System
	shards []*shard

	// Forecast counters: requests whose every horizon was a reused
	// answer, the others, and panics recovered inside a forecast.
	hits, misses, panics atomic.Uint64

	// onApplied is the live post-apply hook (Config.OnApplied or a
	// later SetOnApplied), read atomically by shard workers.
	onApplied atomic.Pointer[func(Observation)]

	// closeMu guards the closed flag against in-flight sends: Observe
	// holds it shared while sending, Close holds it exclusively while
	// closing the shard channels, so no send can race a close.
	closeMu sync.RWMutex
	closed  bool
	wg      sync.WaitGroup
	done    chan struct{}
}

// New builds a pipeline over sys and starts its shard workers.
func New(sys System, cfg Config) (*Pipeline, error) {
	if sys == nil {
		return nil, errors.New("ingest: nil system")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	p := &Pipeline{
		cfg:    cfg,
		sys:    sys,
		shards: make([]*shard, cfg.Shards),
		done:   make(chan struct{}),
	}
	if cfg.OnApplied != nil {
		p.onApplied.Store(&cfg.OnApplied)
	}
	for i := range p.shards {
		p.shards[i] = &shard{id: i, ch: make(chan item, queueSize)}
		p.wg.Add(1)
		go p.worker(p.shards[i])
	}
	return p, nil
}

// ShardIndex maps a sensor id onto one of n shards (FNV-1a): one
// sensor always lands on one shard, which is what preserves its
// ordering. Exported so the write-ahead log can co-locate a sensor's
// registration records with its observations in the same shard log.
func ShardIndex(id string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(n))
}

// shardFor hashes the sensor id onto its shard.
func (p *Pipeline) shardFor(id string) *shard {
	return p.shards[ShardIndex(id, len(p.shards))]
}

// Observe enqueues one observation for asynchronous apply, waiting for
// space when the sensor's shard queue is full. It returns (true, nil)
// when accepted and (false, err) when rejected: ErrClosed after Close,
// or an unknown-sensor error.
func (p *Pipeline) Observe(id string, v float64) (accepted bool, err error) {
	if !p.sys.HasSensor(id) {
		return false, fmt.Errorf("ingest: unknown sensor %q", id)
	}
	it := item{obs: Observation{Sensor: id, Value: v}, at: time.Now()}
	p.closeMu.RLock()
	defer p.closeMu.RUnlock()
	if p.closed {
		return false, ErrClosed
	}
	sh := p.shardFor(id)
	select {
	case sh.ch <- it:
	case <-p.done:
		return false, ErrClosed
	}
	sh.enqueued.Add(1)
	return true, nil
}

// BulkFailure reports one rejected observation of a bulk request.
type BulkFailure struct {
	Index int    `json:"index"`
	ID    string `json:"id"`
	Error string `json:"error"`
}

// BulkResult accounts for a bulk enqueue. Dropped is always 0: the
// pipeline sheds nothing. It stays in the reply for existing clients.
type BulkResult struct {
	Accepted int           `json:"accepted"`
	Dropped  int           `json:"dropped"`
	Failed   []BulkFailure `json:"failed,omitempty"`
}

// ObserveBulk enqueues a batch of observations, possibly spanning many
// sensors, and reports per-item outcomes instead of failing the batch
// on the first bad item.
func (p *Pipeline) ObserveBulk(obs []Observation) BulkResult {
	var res BulkResult
	for i, o := range obs {
		if _, err := p.Observe(o.Sensor, o.Value); err != nil {
			res.Failed = append(res.Failed, BulkFailure{Index: i, ID: o.Sensor, Error: err.Error()})
			continue
		}
		res.Accepted++
	}
	return res
}

// ForecastCtx returns the sensor's h-step-ahead forecast: the
// one-horizon case of ForecastsCtx.
func (p *Pipeline) ForecastCtx(ctx context.Context, id string, h int) (smiler.Forecast, error) {
	fs, err := p.ForecastsCtx(ctx, id, []int{h})
	if err != nil {
		return smiler.Forecast{}, err
	}
	return fs[0], nil
}

// ForecastsCtx returns the sensor's forecast at every horizon in hs, in
// that order. ctx's values (notably the distributed trace context) and
// its deadline reach the prediction. A panic inside the prediction comes
// back as an error instead of killing the process.
func (p *Pipeline) ForecastsCtx(ctx context.Context, id string, hs []int) (fs []smiler.Forecast, err error) {
	defer func() {
		if r := recover(); r != nil {
			p.panics.Add(1)
			fs, err = nil, fmt.Errorf("ingest: recovered panic in forecast: %v", r)
		}
		if err == nil && reusedAll(fs) {
			p.hits.Add(1)
		} else {
			p.misses.Add(1)
		}
	}()
	byH, err := p.sys.PredictHorizonsCtx(ctx, id, hs)
	if err != nil {
		return nil, err
	}
	fs = make([]smiler.Forecast, len(hs))
	for i, h := range hs {
		fs[i] = byH[h]
	}
	return fs, nil
}

// reusedAll reports whether every forecast was a reused answer.
func reusedAll(fs []smiler.Forecast) bool {
	for _, f := range fs {
		if !f.Reused {
			return false
		}
	}
	return len(fs) > 0
}

// SetOnApplied installs (or clears, with nil) the post-apply hook at
// runtime — see Config.OnApplied for its contract. Safe to call while
// workers run; observations mid-apply may still see the old hook.
func (p *Pipeline) SetOnApplied(fn func(Observation)) {
	if fn == nil {
		p.onApplied.Store(nil)
		return
	}
	p.onApplied.Store(&fn)
}

// Drain blocks until every observation enqueued before the call has
// been applied to the system. Observations enqueued concurrently with
// Drain may or may not be covered.
func (p *Pipeline) Drain() error {
	p.closeMu.RLock()
	if p.closed {
		p.closeMu.RUnlock()
		return ErrClosed
	}
	tokens := make([]chan struct{}, len(p.shards))
	for i, sh := range p.shards {
		tokens[i] = make(chan struct{})
		select {
		case sh.ch <- item{flush: tokens[i]}:
		case <-p.done:
			p.closeMu.RUnlock()
			return ErrClosed
		}
	}
	p.closeMu.RUnlock()
	for _, tok := range tokens {
		<-tok
	}
	return nil
}

// Close drains and stops the pipeline: every accepted observation is
// applied before Close returns, after which Observe and Drain return
// ErrClosed. ForecastsCtx keeps working (reads do not need the workers).
// Close is idempotent.
func (p *Pipeline) Close() error {
	p.closeMu.Lock()
	if p.closed {
		p.closeMu.Unlock()
		return nil
	}
	p.closed = true
	close(p.done)
	for _, sh := range p.shards {
		close(sh.ch)
	}
	p.closeMu.Unlock()
	p.wg.Wait()
	return nil
}
