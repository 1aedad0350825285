// Package ingest is the sharded front-end between the transport layer
// (internal/server) and the prediction system (smiler.System).
//
// The paper frames SMiLer as a continuous-query system over many
// concurrent sensor streams (§3): append the new value, then predict
// from the updated index. The pipeline keeps that order over HTTP:
//
//   - Write side: every mutation — an observation, a sensor's
//     registration, its removal — is one wal.Record, and its sensor is
//     hashed (FNV-1a) onto one of N shards. Observe, AddSensor and
//     RemoveSensor take the shard's lock and, under it, check that the
//     sensor exists (or, for a registration, does not), journal the
//     record, apply it to the system and run the post-apply
//     (replication) hook before they return. So a caller's success
//     means "journaled and applied", a forecast that starts after it
//     sees the write, and journal order is apply order for all three
//     kinds. Distinct shards proceed in parallel. A journal failure
//     fails the write, which is then not applied. A busy shard makes
//     the caller wait; nothing is shed.
//   - Read side: a forecast goes straight to the system, under a panic
//     guard. Reuse lives in the sensor: between two observations every
//     read of a horizon gets the first exact answer computed for it
//     (smiler.Forecast.Reused), so a herd of identical requests costs
//     one kNN search + one fit per horizon, and an observation, a
//     removal or a restore, which replace that state, leave nothing
//     stale to invalidate. The pipeline counts the requests reuse
//     answered whole (hits) and the others (misses).
//
// Lock order: shard lock → journal (WAL append) → system → post-apply
// hook (replication emit). WithSensorLocked runs a caller's function
// under the shard lock, so the cluster's resync snapshot (shard lock →
// replication seq → system) sees no write half applied.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync/atomic"
	"time"

	"smiler"
	"smiler/internal/obs"
	"smiler/internal/wal"
)

// System is the slice of *smiler.System the pipeline drives; narrowed
// to an interface so tests can inject instrumented fakes.
type System interface {
	Observe(id string, v float64) error
	AddSensor(id string, history []float64) error
	RemoveSensor(id string) error
	PredictHorizonsCtx(ctx context.Context, id string, hs []int) (map[int]smiler.Forecast, error)
	HasSensor(id string) bool
	// Events is the flight recorder a recovered panic is recorded in
	// (nil records nothing).
	Events() *obs.EventRing
}

// Observation is one sensor reading entering the pipeline.
type Observation struct {
	Sensor string  `json:"id"`
	Value  float64 `json:"value"`
}

// Config configures a Pipeline; zero values take defaults.
type Config struct {
	// Shards is the number of shards (default GOMAXPROCS).
	Shards int
	// Journal, when set, is called under the shard lock immediately
	// before each write is applied — the write-ahead-log hook. Journal
	// order therefore equals apply order. A journal failure fails the
	// write (ErrJournal): it is not applied (a failed observation
	// also counts in the shard's JournalErrors stat). A registration the
	// system rejects after it was journaled is followed by a journaled
	// removal, so a replay cannot resurrect it.
	Journal func(wal.Record) error
	// OnApplied, when set, is called under the shard lock after each
	// write has been successfully applied to the system — the
	// replication hook. Per-sensor call order equals apply order;
	// failed writes never reach it. It can also be installed after
	// construction with SetOnApplied (the cluster layer is built after
	// the server that owns this pipeline).
	//
	// Both hooks run under the shard lock: neither may write through
	// this pipeline.
	OnApplied func(wal.Record)
}

var (
	// ErrClosed is returned by every write and by Drain after Close.
	ErrClosed = errors.New("ingest: pipeline closed")
	// ErrJournal wraps a failed journal append: the write was not
	// applied.
	ErrJournal = errors.New("ingest: journal append failed")
)

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
	// later SetOnApplied).
	onApplied atomic.Pointer[func(wal.Record)]

	// closed is read under any shard lock and written under all of
	// them, so no write applies after Close returns.
	closed bool
}

// New builds a pipeline over sys.
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
	}
	if cfg.OnApplied != nil {
		p.onApplied.Store(&cfg.OnApplied)
	}
	for i := range p.shards {
		p.shards[i] = &shard{id: i}
	}
	return p, nil
}

// ShardIndex maps a sensor id onto one of n shards (FNV-1a): one
// sensor always lands on one shard, which is what preserves its
// ordering. The write-ahead log places its records with it too.
func ShardIndex(id string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(n))
}

// shardFor hashes the sensor id onto its shard.
func (p *Pipeline) shardFor(id string) *shard {
	return p.shards[ShardIndex(id, len(p.shards))]
}

// Observe journals and applies one observation under its shard's lock,
// waiting for the lock while the shard applies another write. It
// returns (true, nil) once the value is journaled and applied, and
// (false, err) otherwise: ErrClosed after Close, an unknown-sensor
// error, an error wrapping ErrJournal, or the system's apply error. An
// unknown sensor is refused at once, without waiting for a busy shard;
// the check under the lock orders the observation against a removal.
func (p *Pipeline) Observe(id string, v float64) (accepted bool, err error) {
	if !p.sys.HasSensor(id) {
		return false, fmt.Errorf("ingest: unknown sensor %q", id)
	}
	if err := p.write(wal.Record{Type: wal.RecObserve, Sensor: id, Value: v}); err != nil {
		return false, err
	}
	return true, nil
}

// AddSensor journals and applies a sensor's registration under its
// shard's lock. It fails if the sensor is already registered, with
// ErrClosed after Close, with an error wrapping ErrJournal, or with the
// system's error (the history is rejected).
func (p *Pipeline) AddSensor(id string, history []float64) error {
	return p.write(wal.Record{Type: wal.RecAddSensor, Sensor: id, History: history})
}

// RemoveSensor journals and applies a sensor's removal under its
// shard's lock. It fails for an unknown sensor, with ErrClosed after
// Close, or with an error wrapping ErrJournal.
func (p *Pipeline) RemoveSensor(id string) error {
	return p.write(wal.Record{Type: wal.RecRemoveSensor, Sensor: id})
}

// write runs one mutation under its sensor's shard lock.
func (p *Pipeline) write(rec wal.Record) error {
	start := time.Now()
	sh := p.shardFor(rec.Sensor)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	return p.apply(sh, rec, start)
}

// WithSensorLocked runs fn under the shard lock of sensor id: no write
// of id is journaled, applied or handed to the post-apply hook while fn
// runs. fn must not write through this pipeline.
func (p *Pipeline) WithSensorLocked(id string, fn func()) {
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fn()
}

// BulkFailure reports one rejected observation of a bulk request.
type BulkFailure struct {
	Index int    `json:"index"`
	ID    string `json:"id"`
	Error string `json:"error"`
}

// BulkResult accounts for a bulk request. Dropped is always 0: the
// pipeline sheds nothing. It stays in the reply for existing clients.
type BulkResult struct {
	Accepted int           `json:"accepted"`
	Dropped  int           `json:"dropped"`
	Failed   []BulkFailure `json:"failed,omitempty"`
}

// ObserveBulk observes a batch of observations, possibly spanning many
// sensors, one by one in request order, and reports per-item outcomes
// instead of failing the batch on the first bad item.
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
// runtime — see Config.OnApplied for its contract. Writes mid-apply
// may still see the old hook.
func (p *Pipeline) SetOnApplied(fn func(wal.Record)) {
	if fn == nil {
		p.onApplied.Store(nil)
		return
	}
	p.onApplied.Store(&fn)
}

// Drain returns once every write in flight when it was called has
// been applied (or has failed): it takes and releases each shard's
// lock in turn. After Close it returns ErrClosed.
func (p *Pipeline) Drain() error {
	for _, sh := range p.shards {
		sh.mu.Lock()
		closed := p.closed
		sh.mu.Unlock()
		if closed {
			return ErrClosed
		}
	}
	return nil
}

// Close waits for in-flight writes and stops the pipeline: afterwards
// every write and Drain return ErrClosed. ForecastsCtx keeps
// working. Close is idempotent.
func (p *Pipeline) Close() error {
	for _, sh := range p.shards {
		sh.mu.Lock()
	}
	p.closed = true
	for _, sh := range p.shards {
		sh.mu.Unlock()
	}
	return nil
}
