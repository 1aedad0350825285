package ingest

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"smiler/internal/obs"
)

// shard is one slice of the sensor space: its lock orders the
// observations of every sensor hashed onto it, so each is journaled
// and applied in arrival order.
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

// apply journals, applies and hands on one observation; the caller
// holds sh.mu and called at start. A panic in the journal, the apply
// or the hook (a bug or an injected fault) becomes this observation's
// error and a flight-recorder event, never a dead process.
func (p *Pipeline) apply(sh *shard, o Observation, start time.Time) (err error) {
	defer func() {
		if r := recover(); r != nil {
			sh.panics.Add(1)
			sh.errs.Add(1)
			err = fmt.Errorf("ingest: recovered panic applying observation: %v", r)
			p.sys.Events().Record(obs.Event{
				Type:     "panic_recovered",
				Severity: obs.SevError,
				Sensor:   o.Sensor,
				Detail:   err.Error(),
			})
		}
	}()
	if p.cfg.Journal != nil {
		if err := p.cfg.Journal(sh.id, o.Sensor, o.Value); err != nil {
			sh.journalErrs.Add(1)
			return fmt.Errorf("%w: %v", ErrJournal, err)
		}
	}
	defer func() {
		sh.processed.Add(1)
		sh.latencyNs.Add(time.Since(start).Nanoseconds())
	}()
	if err := p.sys.Observe(o.Sensor, o.Value); err != nil {
		sh.errs.Add(1)
		return err
	}
	if fn := p.onApplied.Load(); fn != nil {
		(*fn)(o)
	}
	return nil
}
