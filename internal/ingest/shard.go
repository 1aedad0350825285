package ingest

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"smiler/internal/obs"
	"smiler/internal/wal"
)

// shard is one slice of the sensor space: its lock orders the writes
// of every sensor hashed onto it, so each is journaled and applied in
// arrival order.
type shard struct {
	id int
	mu sync.Mutex

	processed   atomic.Uint64
	errs        atomic.Uint64
	latencyNs   atomic.Int64
	journalErrs atomic.Uint64
	panics      atomic.Uint64
}

func (sh *shard) snapshot() ShardStats {
	n := sh.processed.Load()
	s := ShardStats{
		Shard:         sh.id,
		Enqueued:      n,
		Processed:     n,
		Errors:        sh.errs.Load(),
		JournalErrors: sh.journalErrs.Load(),
		Panics:        sh.panics.Load(),
	}
	if s.Processed > 0 {
		s.AvgLatencyMicros = float64(sh.latencyNs.Load()) / 1e3 / float64(s.Processed)
	}
	return s
}

// apply checks, journals, applies and hands on one write; the caller
// holds sh.mu and called at start. Only observations move the shard's
// counters. A panic in the journal, the apply or the hook (a bug or an
// injected fault) becomes this write's error and a flight-recorder
// event, never a dead process.
func (p *Pipeline) apply(sh *shard, rec wal.Record, start time.Time) (err error) {
	observe := rec.Type == wal.RecObserve
	defer func() {
		if r := recover(); r != nil {
			if observe {
				sh.panics.Add(1)
				sh.errs.Add(1)
			}
			err = fmt.Errorf("ingest: recovered panic applying %s: %v", rec.Type, r)
			p.sys.Events().Record(obs.Event{
				Type:     "panic_recovered",
				Severity: obs.SevError,
				Sensor:   rec.Sensor,
				Detail:   err.Error(),
			})
		}
	}()
	switch add, exists := rec.Type == wal.RecAddSensor, p.sys.HasSensor(rec.Sensor); {
	case add && exists:
		return fmt.Errorf("ingest: sensor %q already registered", rec.Sensor)
	case !add && !exists:
		return fmt.Errorf("ingest: unknown sensor %q", rec.Sensor)
	}
	if err := p.journal(rec); err != nil {
		if observe {
			sh.journalErrs.Add(1)
		}
		return err
	}
	switch rec.Type {
	case wal.RecObserve:
		defer func() {
			sh.processed.Add(1)
			sh.latencyNs.Add(time.Since(start).Nanoseconds())
		}()
		if err := p.sys.Observe(rec.Sensor, rec.Value); err != nil {
			sh.errs.Add(1)
			return err
		}
	case wal.RecAddSensor:
		if err := p.sys.AddSensor(rec.Sensor, rec.History); err != nil {
			// The existence check proved no sensor of this id was there
			// before the journaled registration, so its removal restores
			// exactly the state before it.
			if cerr := p.journal(wal.Record{Type: wal.RecRemoveSensor, Sensor: rec.Sensor}); cerr != nil {
				return errors.Join(err, cerr)
			}
			return err
		}
	case wal.RecRemoveSensor:
		if err := p.sys.RemoveSensor(rec.Sensor); err != nil {
			return err
		}
	}
	if fn := p.onApplied.Load(); fn != nil {
		(*fn)(rec)
	}
	return nil
}

// journal hands rec to Config.Journal; a failure wraps ErrJournal.
func (p *Pipeline) journal(rec wal.Record) error {
	if p.cfg.Journal == nil {
		return nil
	}
	if err := p.cfg.Journal(rec); err != nil {
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	return nil
}
